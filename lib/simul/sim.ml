(* Two queues, one total order (see the interface). The timed queue holds
   the events after the clock: a binary min-heap over three parallel
   arrays, ordered by [(times.(i), keys.(i))], where a key is the event's
   sequence number shifted left once, its low bit set for an {!after} hop.
   The key order is the sequence order, and the floats sit unboxed in
   [times], so a timed push allocates nothing. [ring] holds the closures of
   the events at the clock, in push order. A timed event at the clock was
   pushed before the clock got there, so its sequence number is below that
   of every ring event. *)
type t = {
  mutable clock : float;
  mutable seq : int;
  mutable executed : int;
  mutable failure : (string * exn) option;
  mutable times : float array;
  mutable keys : int array;
  mutable runs : (unit -> unit) array;
  mutable size : int;  (* timed events queued *)
  mutable ring : (unit -> unit) array;  (* capacity a power of two *)
  mutable ring_head : int;
  mutable ring_len : int;
  random : Random.State.t;
}

type outcome = Completed | Hit_limit

exception Process_failure of string * exn

let () =
  Printexc.register_printer (function
    | Process_failure (name, exn) ->
        Some (Printf.sprintf "Simul.Sim.Process_failure(%S, %s)" name (Printexc.to_string exn))
    | _ -> None)

let create ?(seed = 42) ?(queue_capacity = 16) () =
  let cap = max queue_capacity 1 in
  {
    clock = 0.;
    seq = 0;
    executed = 0;
    failure = None;
    times = Array.make cap 0.;
    keys = Array.make cap 0;
    runs = Array.make cap ignore;
    size = 0;
    ring = Array.make 64 ignore;
    ring_head = 0;
    ring_len = 0;
    random = Random.State.make [| seed |];
  }

let now t = t.clock
let rng t = t.random
let events_executed t = t.executed
let last_seq t = t.seq

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

let grow_timed t =
  let cap = Array.length t.times in
  let times = Array.make (2 * cap) 0. in
  let keys = Array.make (2 * cap) 0 in
  let runs = Array.make (2 * cap) ignore in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.keys 0 keys 0 cap;
  Array.blit t.runs 0 runs 0 cap;
  t.times <- times;
  t.keys <- keys;
  t.runs <- runs

(* Hole-based sift-up: parents move down into the hole until [at]'s place
   is found, then the event is written once. A freshly drawn key exceeds
   every queued one, but a reserved key ({!schedule_reserved}) may not, so
   a parent at the same time moves down when its key is the greater.
   Inlined into every timed push, so that [at] stays unboxed from the
   caller's addition to the store: the dev profile compiles with
   [-opaque], and nothing is inlined across modules. *)
let[@inline] push_timed t at key run =
  if t.size = Array.length t.times then grow_timed t;
  let times = t.times and keys = t.keys and runs = t.runs in
  let i = ref t.size in
  t.size <- t.size + 1;
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    times.(p) > at || (times.(p) = at && keys.(p) > key)
  do
    let p = (!i - 1) / 2 in
    times.(!i) <- times.(p);
    keys.(!i) <- keys.(p);
    runs.(!i) <- runs.(p);
    i := p
  done;
  times.(!i) <- at;
  keys.(!i) <- key;
  runs.(!i) <- run

(* Removes the root. The last event fills the hole, sifting down past every
   child that precedes it in [(time, key)] order; its vacated slot is reset
   to [ignore], as the ring's are. *)
let pop_timed t =
  let n = t.size - 1 in
  t.size <- n;
  let times = t.times and keys = t.keys and runs = t.runs in
  let at = times.(n) and key = keys.(n) and run = runs.(n) in
  runs.(n) <- ignore;
  if n > 0 then begin
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (times.(r) < times.(l) || (times.(r) = times.(l) && keys.(r) < keys.(l)))
          then r
          else l
        in
        let ct = times.(c) in
        if ct < at || (ct = at && keys.(c) < key) then begin
          times.(!i) <- ct;
          keys.(!i) <- keys.(c);
          runs.(!i) <- runs.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- at;
    keys.(!i) <- key;
    runs.(!i) <- run
  end

(* Routing tests [at], not the delay: a positive delay too small to move the
   clock lands on the current instant and belongs in the FIFO. Inlined, as
   [push_timed] is, so that [at] stays unboxed: a push allocates nothing
   but a same-instant event's ring slot. *)
let[@inline] push t ~at run =
  if at = t.clock then push_now t run
  else begin
    t.seq <- t.seq + 1;
    push_timed t at (t.seq lsl 1) run
  end

let schedule t ~delay f =
  assert (delay >= 0.);
  push t ~at:(t.clock +. delay) f

let reserve t =
  t.seq <- t.seq + 1;
  t.seq

(* A reserved number was drawn before the clock reached [at], so the event
   belongs in the timed queue even at the current instant, ahead of the
   FIFO's events there. *)
let schedule_reserved t ~at ~seq f =
  assert (at >= t.clock && seq <= t.seq);
  push_timed t at (seq lsl 1) f

(* A timed hop is tagged in its key rather than wrapped in a closure:
   {!run} queues its [k] on the FIFO instead of running it. *)
let after t d k =
  assert (d >= 0.);
  let at = t.clock +. d in
  if at = t.clock then push_now t (fun () -> push_now t k)
  else begin
    t.seq <- t.seq + 1;
    push_timed t at ((t.seq lsl 1) lor 1) k
  end

let fail t name exn = if t.failure = None then t.failure <- Some (name, exn)

let run t ?until () =
  let horizon = match until with None -> infinity | Some u -> u in
  let rec loop () =
    if t.ring_len > 0 && (t.size = 0 || t.times.(0) > t.clock) then
      if t.clock > horizon then Hit_limit else step (pop_now t)
    else if t.size = 0 then Completed
    else
      let at = t.times.(0) in
      if at > horizon then Hit_limit
      else begin
        let key = t.keys.(0) and run = t.runs.(0) in
        pop_timed t;
        if at < t.clock then invalid_arg "Sim: event scheduled in the past";
        (* Storing the clock boxes it: skip the store when it stays. *)
        if at > t.clock then t.clock <- at;
        if key land 1 = 0 then step run
        else begin
          t.executed <- t.executed + 1;
          push_now t run;
          next ()
        end
      end
  and step run =
    t.executed <- t.executed + 1;
    run ();
    next ()
  and next () =
    match t.failure with
    | Some (name, exn) -> raise (Process_failure (name, exn))
    | None -> loop ()
  in
  loop ()
