type t = { mutable permits : int; waiters : (unit -> unit) Queue.t }

let create n =
  assert (n >= 0);
  { permits = n; waiters = Queue.create () }

let acquire sim s =
  if s.permits > 0 then s.permits <- s.permits - 1
  else Sim.suspend sim (fun waker -> Queue.add (fun () -> waker ()) s.waiters)

(* A handed-over permit resumes [k] on the event a blocked process's waker
   takes, never inline inside the releaser's step. *)
let acquire_then sim s k =
  if s.permits > 0 then begin
    s.permits <- s.permits - 1;
    k ()
  end
  else Queue.add (fun () -> Sim.schedule sim ~delay:0. k) s.waiters

let release s =
  match Queue.take_opt s.waiters with
  | Some waker -> waker ()
  | None -> s.permits <- s.permits + 1

let with_permit sim s f =
  acquire sim s;
  match f () with
  | x ->
      release s;
      x
  | exception exn ->
      release s;
      raise exn
