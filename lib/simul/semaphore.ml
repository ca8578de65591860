type t = { mutable permits : int; waiters : (unit -> unit) Queue.t }

let create n =
  assert (n >= 0);
  { permits = n; waiters = Queue.create () }

(* A handed-over permit resumes [k] on an event of its own, never inline
   inside the releaser's step. *)
let acquire_then sim s k =
  if s.permits > 0 then begin
    s.permits <- s.permits - 1;
    k ()
  end
  else Queue.add (fun () -> Sim.schedule sim ~delay:0. k) s.waiters

let release s =
  match Queue.take_opt s.waiters with
  | Some wake -> wake ()
  | None -> s.permits <- s.permits + 1
