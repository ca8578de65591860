open Effect
open Effect.Deep

type proc = {
  pid : int;
  pname : string Lazy.t;
      (* names are diagnostic-only (stall reports, failure attribution), so
         they are rendered lazily: spawning half a million subtransaction
         fibers must not pay a [sprintf] each for names nobody reads *)
  daemon : bool;
  mutable blocked : bool;
  mutable finished : bool;
}

type event = { at : float; seq : int; run : unit -> unit }

(* Two queues, one total order (see the interface): [queue] holds the events
   after the clock, [ring] the closures of those at it, in push order. A
   heap event at the clock was pushed before the clock got there, so its
   [seq] is below that of every ring event. *)
type t = {
  mutable clock : float;
  mutable seq : int;
  mutable next_pid : int;
  mutable executed : int;
  mutable failure : (string * exn) option;
  queue : event Heap.t;
  mutable ring : (unit -> unit) array;  (* capacity a power of two *)
  mutable ring_head : int;
  mutable ring_len : int;
  procs : (int, proc) Hashtbl.t;
  random : Random.State.t;
}

type outcome = Completed | Stalled of string list | Hit_limit

exception Process_failure of string * exn

let leq_event a b = a.at < b.at || (a.at = b.at && a.seq <= b.seq)

(* Inert filler for vacated heap slots: captures nothing, so executed events
   (and the continuations their closures capture) are collectable as soon as
   they are popped. *)
let dummy_event = { at = neg_infinity; seq = 0; run = ignore }

let create ?(seed = 42) ?(queue_capacity = 16) () =
  {
    clock = 0.;
    seq = 0;
    next_pid = 0;
    executed = 0;
    failure = None;
    queue = Heap.create ~capacity:queue_capacity ~dummy:dummy_event ~leq:leq_event ();
    ring = Array.make 64 ignore;
    ring_head = 0;
    ring_len = 0;
    procs = Hashtbl.create 64;
    random = Random.State.make [| seed |];
  }

let now t = t.clock
let rng t = t.random
let events_executed t = t.executed
let last_seq t = t.seq
let tally_coalesced t ~extra = t.executed <- t.executed + extra

let grow_ring t =
  let cap = Array.length t.ring in
  let ring = Array.make (2 * cap) ignore in
  for i = 0 to t.ring_len - 1 do
    ring.(i) <- t.ring.((t.ring_head + i) land (cap - 1))
  done;
  t.ring <- ring;
  t.ring_head <- 0

let push_now t run =
  t.seq <- t.seq + 1;
  if t.ring_len = Array.length t.ring then grow_ring t;
  let ring = t.ring in
  ring.((t.ring_head + t.ring_len) land (Array.length ring - 1)) <- run;
  t.ring_len <- t.ring_len + 1

(* The vacated slot is reset to [ignore], so an executed closure (and the
   continuation it captures) is collectable as soon as it is popped. *)
let pop_now t =
  let ring = t.ring in
  let run = ring.(t.ring_head) in
  ring.(t.ring_head) <- ignore;
  t.ring_head <- (t.ring_head + 1) land (Array.length ring - 1);
  t.ring_len <- t.ring_len - 1;
  run

(* Routing tests [at], not the delay: a positive delay too small to move the
   clock lands on the current instant and belongs in the FIFO. Inlined so
   that [at] stays unboxed on the way to the FIFO: a same-instant push
   allocates nothing but its ring slot. *)
let[@inline] push t ~at run =
  if at = t.clock then push_now t run
  else begin
    t.seq <- t.seq + 1;
    Heap.add t.queue { at; seq = t.seq; run }
  end

let schedule t ?(delay = 0.) f =
  assert (delay >= 0.);
  push t ~at:(t.clock +. delay) f

(* The two events [sleep t d] resumes on, with [k] as the resumption. *)
let after t d k =
  assert (d >= 0.);
  push t ~at:(t.clock +. d) (fun () -> push_now t k)

let fail t name exn = if t.failure = None then t.failure <- Some (name, exn)

(* A single effect suffices: suspend with a waker-registration function. *)
type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let suspend _t register = perform (Suspend register)

let sleep t d =
  assert (d >= 0.);
  suspend t (fun waker -> push t ~at:(t.clock +. d) waker)

let yield t = suspend t (fun waker -> push_now t waker)

(* Run [body] as a coroutine attached to [proc]. Suspension registers a waker
   that re-enters the event loop. *)
let start_process t proc body =
  let fiber () =
    match_with body ()
      {
        (* Finished processes are dropped from [t.procs] immediately: the
           table only exists to report still-blocked processes at stall
           time, and keeping every completed fiber's record alive would
           grow the table (and its proc records) for the life of the run. *)
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
                      push_now t (fun () ->
                          proc.blocked <- false;
                          continue k v)
                    in
                    register waker)
            | _ -> None);
      }
  in
  fiber ()

let spawn t ?(daemon = false) ?name ?namef body =
  t.next_pid <- t.next_pid + 1;
  let pid = t.next_pid in
  let pname =
    match (name, namef) with
    | Some n, _ -> Lazy.from_val n
    | None, Some f -> Lazy.from_fun f
    | None, None -> lazy (Printf.sprintf "proc-%d" pid)
  in
  let proc = { pid; pname; daemon; blocked = false; finished = false } in
  Hashtbl.replace t.procs pid proc;
  push_now t (fun () -> start_process t proc body)

let stalled_names t =
  Hashtbl.fold
    (fun _ p acc ->
      if p.blocked && (not p.finished) && not p.daemon then
        Lazy.force p.pname :: acc
      else acc)
    t.procs []
  |> List.sort String.compare

let run t ?until () =
  let horizon = match until with None -> infinity | Some u -> u in
  let q = t.queue in
  let rec loop () =
    if t.ring_len > 0 && (Heap.is_empty q || (Heap.top q).at > t.clock) then
      if t.clock > horizon then Hit_limit else step (pop_now t)
    else if Heap.is_empty q then
      match stalled_names t with [] -> Completed | names -> Stalled names
    else
      let ev = Heap.top q in
      if ev.at > horizon then Hit_limit
      else begin
        ignore (Heap.pop_min q : event);
        if ev.at < t.clock then invalid_arg "Sim: event scheduled in the past";
        t.clock <- ev.at;
        step ev.run
      end
  and step run =
    t.executed <- t.executed + 1;
    run ();
    match t.failure with
    | Some (name, exn) -> raise (Process_failure (name, exn))
    | None -> loop ()
  in
  loop ()
