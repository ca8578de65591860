(* Reference kernel: the simulator as it was before the same-instant FIFO
   and the flat-array timed queue, kept as the specification the two-queue
   kernel is compared against (test_simul.ml's kernel order property).
   Every event, including those at the current instant and those queued
   under a reserved number, is an [{at; seq; run}] record in the generic
   binary heap ([Heap]) ordered by [(at, seq)]. It also keeps the
   effect-handler processes the library kernel had before every actor
   became a callback chain, with their own outcome type: test_simul.ml's
   dispatch property runs the node-process shape on them as the reference
   for the library's callback drain. The failure exception is the
   library's own. *)

open Effect
open Effect.Deep

type proc = {
  pid : int;
  pname : string Lazy.t;
  daemon : bool;
  mutable blocked : bool;
  mutable finished : bool;
}

type event = { at : float; seq : int; run : unit -> unit }

type t = {
  mutable clock : float;
  mutable seq : int;
  mutable next_pid : int;
  mutable executed : int;
  mutable failure : (string * exn) option;
  queue : event Heap.t;
  procs : (int, proc) Hashtbl.t;
}

(* [Stalled]: the queue drained with the named non-daemon processes still
   blocked. *)
type outcome = Completed | Stalled of string list | Hit_limit

exception Process_failure = Simul.Sim.Process_failure

let leq_event a b = a.at < b.at || (a.at = b.at && a.seq <= b.seq)
let dummy_event = { at = neg_infinity; seq = 0; run = ignore }

let create ?seed:_ ?(queue_capacity = 16) () =
  {
    clock = 0.;
    seq = 0;
    next_pid = 0;
    executed = 0;
    failure = None;
    queue = Heap.create ~capacity:queue_capacity ~dummy:dummy_event ~leq:leq_event ();
    procs = Hashtbl.create 64;
  }

let now t = t.clock
let events_executed t = t.executed
let last_seq t = t.seq

let push t ~at run =
  t.seq <- t.seq + 1;
  Heap.add t.queue { at; seq = t.seq; run }

let schedule t ~delay f =
  assert (delay >= 0.);
  push t ~at:(t.clock +. delay) f

let reserve t =
  t.seq <- t.seq + 1;
  t.seq

let schedule_reserved t ~at ~seq f =
  assert (at >= t.clock && seq <= t.seq);
  Heap.add t.queue { at; seq; run = f }

(* [after] as the kernel had it before its hop was a tag on the queued
   key: a timed event whose closure pushes [k] at the then-current
   instant. *)
let after t d k =
  assert (d >= 0.);
  push t ~at:(t.clock +. d) (fun () -> push t ~at:t.clock k)

let fail t name exn = if t.failure = None then t.failure <- Some (name, exn)

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let suspend _t register = perform (Suspend register)

let sleep t d =
  assert (d >= 0.);
  suspend t (fun waker -> push t ~at:(t.clock +. d) (fun () -> waker ()))

let start_process t proc body =
  match_with body ()
    {
      retc =
        (fun () ->
          proc.finished <- true;
          Hashtbl.remove t.procs proc.pid);
      exnc =
        (fun exn ->
          proc.finished <- true;
          Hashtbl.remove t.procs proc.pid;
          fail t (Lazy.force proc.pname) exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, _) continuation) ->
                  proc.blocked <- true;
                  let fired = ref false in
                  let waker v =
                    if !fired then
                      invalid_arg
                        (Printf.sprintf "Sim: waker for process %S invoked twice"
                           (Lazy.force proc.pname));
                    fired := true;
                    push t ~at:t.clock (fun () ->
                        proc.blocked <- false;
                        continue k v)
                  in
                  register waker)
          | _ -> None);
    }

let spawn t ?(daemon = false) ?name body =
  t.next_pid <- t.next_pid + 1;
  let pid = t.next_pid in
  let pname =
    match name with
    | Some n -> Lazy.from_val n
    | None -> lazy (Printf.sprintf "proc-%d" pid)
  in
  let proc = { pid; pname; daemon; blocked = false; finished = false } in
  Hashtbl.replace t.procs pid proc;
  push t ~at:t.clock (fun () -> start_process t proc body)

let stalled_names t =
  Hashtbl.fold
    (fun _ p acc ->
      if p.blocked && (not p.finished) && not p.daemon then Lazy.force p.pname :: acc
      else acc)
    t.procs []
  |> List.sort String.compare

let run t ?until () =
  let horizon = match until with None -> infinity | Some u -> u in
  let rec loop () =
    if Heap.is_empty t.queue then
      match stalled_names t with [] -> Completed | names -> Stalled names
    else if (Heap.top t.queue).at > horizon then Hit_limit
    else begin
      let ev = Heap.pop_min t.queue in
      if ev.at < t.clock then invalid_arg "Sim: event scheduled in the past";
      t.clock <- ev.at;
      t.executed <- t.executed + 1;
      ev.run ();
      (match t.failure with
      | Some (name, exn) -> raise (Process_failure (name, exn))
      | None -> ());
      loop ()
    end
  in
  loop ()
