(* Tests for the discrete-event simulation kernel. *)

module Sim = Simul.Sim
module Ivar = Simul.Ivar
module Mailbox = Simul.Mailbox
module Semaphore = Simul.Semaphore

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------- heap *)

let heap_basic () =
  let h = Heap.create ~dummy:0 ~leq:( <= ) () in
  checkb "empty" true (Heap.is_empty h);
  List.iter (Heap.add h) [ 5; 3; 8; 1; 9; 2 ];
  checki "length" 6 (Heap.length h);
  checki "min" 1 (Heap.pop_min h);
  checki "next" 2 (Heap.pop_min h);
  Heap.add h 0;
  checki "new min" 0 (Heap.pop_min h)

let heap_empty_pop () =
  let h = Heap.create ~dummy:0 ~leq:( <= ) () in
  Alcotest.check_raises "pop empty" Not_found (fun () ->
      ignore (Heap.pop_min h))

let heap_peek_clear () =
  let h = Heap.create ~dummy:0 ~leq:( <= ) () in
  Alcotest.check_raises "peek empty" Not_found (fun () -> ignore (Heap.top h));
  Heap.add h 7;
  checki "peek" 7 (Heap.top h);
  checki "peek does not remove" 1 (Heap.length h);
  Heap.clear h;
  checkb "cleared" true (Heap.is_empty h)

(* Regression: pop_min must clear the slots it vacates. Before the fix the
   backing array kept a stale reference to every popped element, pinning it
   (and, in the simulator, the continuation its closure captured) for the
   life of the heap. *)
let heap_no_pin_after_pop () =
  let dummy = ref (-1) in
  let h = Heap.create ~dummy ~leq:(fun a b -> !a <= !b) () in
  let weak = Weak.create 3 in
  for i = 0 to 2 do
    let boxed = ref i in
    Weak.set weak i (Some boxed);
    Heap.add h boxed
  done;
  for i = 0 to 2 do
    checki "pop order" i !(Heap.pop_min h)
  done;
  Gc.full_major ();
  for i = 0 to 2 do
    checkb
      (Printf.sprintf "popped element %d collectable" i)
      false (Weak.check weak i)
  done;
  (* The heap itself stays live across the collection. *)
  checkb "emptied" true (Heap.is_empty h)

let heap_clear_releases () =
  let dummy = ref (-1) in
  let h = Heap.create ~dummy ~leq:(fun a b -> !a <= !b) () in
  let weak = Weak.create 1 in
  let boxed = ref 42 in
  Weak.set weak 0 (Some boxed);
  Heap.add h boxed;
  Heap.clear h;
  Gc.full_major ();
  checkb "cleared element collectable" false (Weak.check weak 0);
  checkb "cleared" true (Heap.is_empty h)

let heap_sort_property =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~dummy:0 ~leq:( <= ) () in
      List.iter (Heap.add h) xs;
      let rec drain acc =
        if Heap.is_empty h then List.rev acc else drain (Heap.pop_min h :: acc)
      in
      drain [] = List.sort compare xs)

(* Model check against a sorted list, using the simulator's real element
   shape: (time, seq) with the event-queue ordering. Equal-timestamp events
   must drain in seq (insertion) order — the tie-break the whole simulation's
   determinism rests on. *)
let heap_model_property =
  QCheck.Test.make ~name:"heap matches sorted-list model with seq tie-break"
    ~count:300
    QCheck.(list (int_bound 7))
    (fun times ->
      let leq (at1, seq1) (at2, seq2) =
        at1 < at2 || (at1 = at2 && seq1 <= seq2)
      in
      let h = Heap.create ~dummy:(0, 0) ~leq () in
      let events = List.mapi (fun seq at -> (at, seq)) times in
      List.iter (Heap.add h) events;
      let rec drain acc =
        if Heap.is_empty h then List.rev acc else drain (Heap.pop_min h :: acc)
      in
      (* [compare] on (at, seq) pairs is exactly the event order, and seqs
         are distinct, so the sort is the unique correct drain order. *)
      drain [] = List.sort compare events)

(* -------------------------------------------------------------- sim *)

let sim_schedule_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:2. (fun () -> log := 2 :: !log);
  Sim.schedule sim ~delay:1. (fun () -> log := 1 :: !log);
  Sim.schedule sim ~delay:3. (fun () -> log := 3 :: !log);
  checkb "completed" true (Sim.run sim () = Sim.Completed);
  check Alcotest.(list int) "time order" [ 1; 2; 3 ] (List.rev !log)

let sim_fifo_same_time () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.schedule sim ~delay:0. (fun () -> log := i :: !log)
  done;
  ignore (Sim.run sim ());
  check Alcotest.(list int) "insertion order at equal time" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

(* A chain's [Sim.after] steps move the clock by their delays. *)
let sim_sleep_advances_clock () =
  let sim = Sim.create () in
  let seen = ref 0. in
  Sim.after sim 1.5 (fun () -> Sim.after sim 0.25 (fun () -> seen := Sim.now sim));
  ignore (Sim.run sim ());
  check Alcotest.(float 1e-9) "clock" 1.75 !seen

let sim_determinism () =
  let trace seed =
    let sim = Sim.create ~seed () in
    let log = ref [] in
    for i = 1 to 20 do
      Sim.schedule sim ~delay:0. (fun () ->
          Sim.after sim (Random.State.float (Sim.rng sim) 1.) (fun () ->
              log := (i, Sim.now sim) :: !log))
    done;
    ignore (Sim.run sim ());
    !log
  in
  checkb "same seed, same trace" true (trace 5 = trace 5);
  checkb "different seed, different trace" true (trace 5 <> trace 6)

let sim_until_limit () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Sim.after sim 1. tick
  in
  Sim.after sim 1. tick;
  checkb "hit limit" true (Sim.run sim ~until:10.5 () = Sim.Hit_limit);
  checki "ticks until horizon" 10 !count;
  (* The run can be continued. *)
  checkb "hit next limit" true (Sim.run sim ~until:20.5 () = Sim.Hit_limit);
  checki "more ticks" 20 !count

(* A callback that catches its own failure reports it through [Sim.fail]:
   the run stops after that event and raises it under the given name. The
   first failure recorded wins. *)
let sim_process_failure () =
  let sim = Sim.create () in
  let later = ref false in
  Sim.schedule sim ~delay:0. (fun () ->
      (try failwith "boom" with exn -> Sim.fail sim "bomb" exn);
      Sim.fail sim "second" (Failure "late"));
  Sim.schedule sim ~delay:0. (fun () -> later := true);
  match Sim.run sim () with
  | exception Sim.Process_failure (name, Failure msg) ->
      checkb "name and message" true (name = "bomb" && msg = "boom");
      checkb "stopped after the failing event" false !later
  | _ -> Alcotest.fail "expected Process_failure"

(* An uncaught failure prints its inner exception, not [_]. *)
let sim_process_failure_printed () =
  let s = Printexc.to_string (Sim.Process_failure ("x", Failure "boom")) in
  let has sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  checkb (Printf.sprintf "%S names the name and the inner failure" s) true
    (has "\"x\"" && has "boom")

(* Schedule-into-the-past is a programming error the kernel refuses: a
   negative delay trips its assertion, here from inside a running
   event. *)
let sim_event_in_past_rejected () =
  let sim = Sim.create () in
  Sim.after sim 1.0 (fun () ->
      match Sim.schedule sim ~delay:(-1.) (fun () -> ()) with
      | () -> Alcotest.fail "negative delay accepted"
      | exception Assert_failure _ -> ());
  ignore (Sim.run sim ())

let sim_events_executed_counts () =
  let sim = Sim.create () in
  for _ = 1 to 5 do
    Sim.schedule sim ~delay:0. (fun () -> ())
  done;
  ignore (Sim.run sim ());
  Alcotest.(check bool) "at least the scheduled events" true
    (Sim.events_executed sim >= 5)

(* ------------------------------------------------------------- ivar *)

let ivar_basic () =
  let sim = Sim.create () in
  let iv = Ivar.create () in
  Sim.schedule sim ~delay:1. (fun () -> Ivar.fill iv 42);
  checkb "empty before the fill" false (Ivar.is_full iv);
  ignore (Sim.run sim ());
  checkb "full after" true (Ivar.is_full iv);
  checkb "peek" true (Ivar.peek iv = Some 42)

let ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  Alcotest.check_raises "double fill"
    (Invalid_argument "Ivar.fill: already full") (fun () -> Ivar.fill iv 2)

(* ---------------------------------------------------------- mailbox *)

(* The drain hands messages over in send order, several queued before it
   runs included. *)
let mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let log = ref [] in
  Mailbox.serve sim mb ~name:"receiver" (fun x next ->
      log := x :: !log;
      next ());
  Sim.schedule sim ~delay:1. (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Mailbox.send mb 3);
  ignore (Sim.run sim ());
  check Alcotest.(list int) "fifo" [ 1; 2; 3 ] (List.rev !log)

let mailbox_take () =
  let mb = Mailbox.create () in
  checkb "empty take raises" true
    (match Mailbox.take mb with _ -> false | exception Invalid_argument _ -> true);
  Mailbox.send mb 9;
  Mailbox.send mb 10;
  checki "length" 2 (Mailbox.length mb);
  checki "first" 9 (Mailbox.take mb);
  checki "second" 10 (Mailbox.take mb);
  checki "drained" 0 (Mailbox.length mb)

(* A served mailbox's wake allocates nothing: the message sits unboxed in
   the mailbox's ring, and arming the hook and queuing the drain are free,
   so a round of send, wake, take and re-arm costs no minor word. One run
   drives every round, a preallocated sender rescheduling itself behind
   the drain. *)
let mailbox_callback_wake_cost () =
  let n = 10_000 in
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let sent = ref 0 and taken = ref 0 in
  let rec sender () =
    if !sent < n then begin
      incr sent;
      Mailbox.send mb !sent;
      Sim.schedule sim ~delay:0. sender
    end
  in
  Mailbox.serve sim mb ~name:"receiver" (fun x next ->
      taken := !taken + x;
      next ());
  Sim.schedule sim ~delay:0. sender;
  let before = Gc.minor_words () in
  ignore (Sim.run sim ());
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  checki "every message taken" (n * (n + 1) / 2) !taken;
  if words > 0.1 then Alcotest.failf "a callback wake allocates %.2f minor words" words

(* -------------------------------------------------------- semaphore *)

(* [workers] units of work each hold a permit for 0.1 s, taken through
   [acquire_then]: the most ever inside at once, and how many finished. *)
let semaphore_run ~permits ~workers =
  let sim = Sim.create () in
  let sem = Semaphore.create permits in
  let inside = ref 0 and max_inside = ref 0 and finished = ref 0 in
  for _ = 1 to workers do
    Sim.schedule sim ~delay:0. (fun () ->
        Semaphore.acquire_then sim sem (fun () ->
            incr inside;
            if !inside > !max_inside then max_inside := !inside;
            Sim.after sim 0.1 (fun () ->
                decr inside;
                incr finished;
                Semaphore.release sem)))
  done;
  ignore (Sim.run sim ());
  (!max_inside, !finished)

let semaphore_mutual_exclusion () =
  let max_inside, finished = semaphore_run ~permits:1 ~workers:5 in
  checki "never two inside" 1 max_inside;
  checki "every worker ran" 5 finished

let semaphore_counting () =
  let max_inside, finished = semaphore_run ~permits:2 ~workers:6 in
  checki "two permits" 2 max_inside;
  checki "every worker ran" 6 finished

(* ---------------------------------------------- kernel order oracle *)

(* The kernel's contract is one total order, [(at, seq)], however it queues
   events, including an event queued under a number reserved earlier.
   [Program] runs a small callback program on any kernel with this
   interface and records what an observer can see; the order property
   runs the same program on the two-queue kernel and on the heap-only
   reference kernel ([Sim_oracle]) and requires the same record after
   every step. *)
module type KERNEL = sig
  type t

  val create : ?seed:int -> ?queue_capacity:int -> unit -> t
  val now : t -> float
  val events_executed : t -> int
  val last_seq : t -> int
  val schedule : t -> delay:float -> (unit -> unit) -> unit
  val reserve : t -> int
  val schedule_reserved : t -> at:float -> seq:int -> (unit -> unit) -> unit
  val after : t -> float -> (unit -> unit) -> unit
  val fail : t -> string -> exn -> unit

  val run : t -> ?until:float -> unit -> string
  (** The outcome, rendered, a failure included. *)
end

let failed name exn = Printf.sprintf "failure %s %s" name (Printexc.to_string exn)

module Fifo = struct
  include Sim

  let run t ?until () =
    match Sim.run t ?until () with
    | Sim.Completed -> "completed"
    | Sim.Hit_limit -> "hit limit"
    | exception Sim.Process_failure (name, exn) -> failed name exn
end

module Reference = struct
  include Sim_oracle

  let run t ?until () =
    match Sim_oracle.run t ?until () with
    | Sim_oracle.Completed -> "completed"
    | Sim_oracle.Stalled names -> "stalled " ^ String.concat "," names
    | Sim_oracle.Hit_limit -> "hit limit"
    | exception Sim_oracle.Process_failure (name, exn) -> failed name exn
end

(* What a callback does. *)
type act =
  | Send of int  (** to mailbox [i] *)
  | Arm of int  (** mailbox [i]'s arrival hook: its wake takes every queued message *)
  | Fill of int  (** ivar [i]; a no-op once full *)
  | Schedule of float * act list  (** a callback after a delay *)
  | After of float * act list  (** [after] a callback *)
  | Reserve of int * float
      (** reserve a number for an event this long from now, in slot [i] *)
  | Queue of int * act list
      (** queue a callback under slot [i]'s number, unless it is empty or
          its instant has passed *)
  | Fail

(* What the program does between runs. *)
type step =
  | Later of float * act list  (** schedule a callback *)
  | Run of float option  (** [run ?until] *)

module Program (K : KERNEL) = struct
  type state = {
    sim : K.t;
    boxes : int Mailbox.t array;
    ivars : int Ivar.t array;
    slots : (float * int) option array;  (** reserved instants and numbers *)
    mutable log : string list;  (* newest first *)
    mutable next : int;
  }

  let create () =
    {
      sim = K.create ();
      boxes = Array.init 2 (fun _ -> Mailbox.create ());
      ivars = Array.init 2 (fun _ -> Ivar.create ());
      slots = Array.make 2 None;
      log = [];
      next = 0;
    }

  let note st fmt =
    Printf.ksprintf (fun s -> st.log <- Printf.sprintf "%s@%h" s (K.now st.sim) :: st.log) fmt

  let fresh st =
    st.next <- st.next + 1;
    st.next

  let rec take_all st name box =
    if Mailbox.length box > 0 then begin
      note st "%s got %d" name (Mailbox.take box);
      take_all st name box
    end

  (* A failing callback reports through [K.fail], as the library's actors
     do. *)
  let rec exec st name acts =
    match
      List.iteri
        (fun i a ->
          note st "%s.%d" name i;
          act st name a)
        acts
    with
    | () -> note st "%s.end" name
    | exception exn -> K.fail st.sim name exn

  and act st name = function
    | Send b -> Mailbox.send st.boxes.(b) (fresh st)
    | Arm b ->
        let box = st.boxes.(b) and wake = Printf.sprintf "w%d" (fresh st) in
        Mailbox.on_arrival box (fun () ->
            K.schedule st.sim ~delay:0. (fun () -> take_all st wake box))
    | Fill i ->
        let iv = st.ivars.(i) in
        note st "%s finds %d %s" name i
          (match Ivar.peek iv with Some v -> string_of_int v | None -> "empty");
        if not (Ivar.is_full iv) then Ivar.fill iv (fresh st)
    | Schedule (delay, body) -> later st delay body
    | After (delay, body) ->
        let name = Printf.sprintf "a%d" (fresh st) in
        K.after st.sim delay (fun () -> exec st name body)
    | Reserve (i, delay) -> st.slots.(i) <- Some (K.now st.sim +. delay, K.reserve st.sim)
    | Queue (i, body) -> (
        match st.slots.(i) with
        | Some (at, seq) when at >= K.now st.sim ->
            st.slots.(i) <- None;
            let name = Printf.sprintf "r%d" (fresh st) in
            K.schedule_reserved st.sim ~at ~seq (fun () -> exec st name body)
        | Some _ | None -> note st "%s finds slot %d unusable" name i)
    | Fail -> failwith name

  and later st delay body =
    let name = Printf.sprintf "c%d" (fresh st) in
    K.schedule st.sim ~delay (fun () -> exec st name body)

  (* Everything the comparison reads after a step. *)
  let step st = function
    | Later (delay, body) ->
        later st delay body;
        ""
    | Run until -> K.run st.sim ?until ()

  let observe st outcome =
    (List.rev st.log, K.events_executed st.sim, K.last_seq st.sim, K.now st.sim, outcome)
end

module Fifo_kernel = Program (Fifo)
module Heap_kernel = Program (Reference)

(* Runs [steps] on both kernels and finishes with an unbounded run. [None]
   if every observation agreed, else the first step where they differ. *)
let first_divergence steps =
  let a = Fifo_kernel.create () and b = Heap_kernel.create () in
  let rec go i = function
    | [] -> None
    | step :: rest ->
        let oa = Fifo_kernel.observe a (Fifo_kernel.step a step)
        and ob = Heap_kernel.observe b (Heap_kernel.step b step) in
        if oa = ob then go (i + 1) rest else Some i
  in
  go 0 (steps @ [ Run None ])

(* [1e-20] moves the clock from 0 but not from 0.5 or later: a positive
   delay that lands on the current instant must join the same-instant
   queue, not the heap. *)
let gen_delay = QCheck.Gen.oneofl [ 0.; 0.; 1e-20; 0.5; 1.0; 1.5 ]

(* About half the programs fail somewhere, and every run after a failure
   raises it again; the rest run to completion. A reservation's delay
   always moves the clock, as the kernel requires of a number queued at
   its instant; reservations share instants, and are queued in any order,
   from events before their instant or at it. *)
let gen_acts =
  QCheck.Gen.(
    fix
      (fun self depth ->
        list_size (int_bound 6)
          (frequency
             ([
                (27, map (fun b -> Send b) (int_bound 1));
                (18, map (fun b -> Arm b) (int_bound 1));
                (18, map (fun i -> Fill i) (int_bound 1));
                (9, map2 (fun i d -> Reserve (i, d)) (int_bound 1) (oneofl [ 0.5; 1.0 ]));
                (1, return Fail);
              ]
             @
             if depth = 0 then []
             else
               [
                 (18, map2 (fun d body -> Schedule (d, body)) gen_delay (self (depth - 1)));
                 (18, map2 (fun d body -> After (d, body)) gen_delay (self (depth - 1)));
                 (12, map2 (fun i body -> Queue (i, body)) (int_bound 1) (self (depth - 1)));
               ])))
      3)

let gen_steps =
  QCheck.Gen.(
    list_size (int_range 1 16)
      (frequency
         [
           (4, map2 (fun d body -> Later (d, body)) gen_delay gen_acts);
           ( 2,
             map
               (fun u -> Run u)
               (oneofl [ None; Some 0.; Some 0.5; Some 1.0; Some 1.2; Some 2.5 ]) );
         ]))

let kernel_order_property =
  QCheck.Test.make ~name:"two-queue kernel == heap-only oracle" ~count:1000
    (QCheck.make gen_steps) (fun steps ->
      match first_divergence steps with
      | None -> true
      | Some i -> QCheck.Test.fail_reportf "observations differ after step %d" i)

(* Two numbers reserved at time 0 for one instant, then a callback [cx]
   scheduled there; after a run, a second callback [cz] for the same
   instant.
   At that instant [cx] queues a same-instant callback [cy], then an event
   under the second number, then one under the first. The reserved events
   run first, in number order though queued in the other, ahead of [cz],
   which was queued long before them under a later number, and ahead of
   [cy], which was queued before them at their instant. *)
let sim_reserved_order () =
  let steps =
    [
      Later
        ( 0.,
          [
            Reserve (0, 1.0);
            Reserve (1, 1.0);
            Schedule
              ( 1.0,
                [ Schedule (0., [ Fill 0 ]); Send 0; Queue (1, [ Send 1 ]); Queue (0, [ Fill 1 ]) ]
              );
            Arm 0;
            Arm 1;
          ] );
      Run (Some 0.5);
      Later (1.0, [ Fill 0 ]);
      Run None;
    ]
  in
  checkb "same observations" true (first_divergence steps = None);
  let st = Fifo_kernel.create () in
  List.iter (fun step -> ignore (Fifo_kernel.step st step : string)) steps;
  (* The callbacks that ended at 1.0, in order, by name: a letter for how
     each was queued and the number it was named with. *)
  let ended =
    List.filter_map
      (fun e ->
        match String.split_on_char '@' e with
        | [ label; at ] when Float.of_string at = 1.0 && String.ends_with ~suffix:".end" label ->
            Some (label.[0], int_of_string (String.sub label 1 (String.length label - 5)))
        | _ -> None)
      (List.rev st.Fifo_kernel.log)
  in
  match ended with
  | [ ('c', cx); ('r', first); ('r', second); ('c', cz); ('c', cy) ] ->
      checkb "named in queuing order" true (cx < cz && cz < cy && cy < second && second < first)
  | _ -> Alcotest.fail "the instant's callbacks ran in another order"

(* A deterministic program with hundreds of same-instant events in flight,
   so the FIFO grows while its head is mid-ring: 150 callbacks queued at
   time 0 fill it to 150 of 256 slots, and each queues at least two more
   at the same instant as it runs. *)
let sim_fifo_growth_order () =
  let worker i =
    let b = i land 1 in
    [
      Send b;
      Arm (1 - b);
      Schedule (0., [ Send (1 - b); Fill b ]);
      After (0., [ Send b; Arm b ]);
      After (0.5, [ Send (1 - b) ]);
    ]
  in
  let steps =
    List.init 150 (fun i -> Later (0., worker i))
    @ [ Run (Some 0.25); Later (0., worker 0 @ [ Schedule (0., worker 1) ]); Run None ]
  in
  checkb "same observations" true (first_divergence steps = None)

(* Hundreds of timed events in flight, at distinct and tied times, from
   schedules and [after]s, so the timed queue outgrows its 16 initial
   slots and pops sift 8 and more levels deep; arrival hooks armed along
   the way take what the callbacks send. *)
let sim_deep_queue_order () =
  let delay i = float ((i * 37) mod 101) /. 8. in
  let steps =
    List.init 40 (fun i ->
        Later (delay i, [ Arm (i land 1); After (delay (i + 7), [ Arm (i land 1) ]) ]))
    @ List.init 600 (fun i ->
          if i mod 3 = 0 then Later (delay i, [ After (delay (i + 1), [ Send (i land 1) ]) ])
          else Later (delay i, [ Send (i land 1); Fill (i land 1) ]))
    @ [ Run (Some 3.); Later (0., [ Fill 0; After (1., [ Fill 1; Arm 0 ]) ]); Run (Some 8.) ]
  in
  checkb "same observations" true (first_divergence steps = None)

(* A timed event allocates only the boxed clock it sets (2 words): the
   queue's three arrays hold its time, key and closure unboxed, and an
   [after] hop is a tag on the key rather than a closure. 64 chains of
   preallocated callbacks keep 64 events in flight, at distinct times. *)
let timed_event_cost ~after () =
  let n = 20_000 in
  let sim = Sim.create () in
  let fired = ref 0 in
  let rec tick () =
    incr fired;
    if !fired <= n then
      if after then Sim.after sim 1.0 tick else Sim.schedule sim ~delay:1.0 tick
  in
  for i = 1 to 64 do
    Sim.schedule sim ~delay:(float i /. 64.) tick
  done;
  ignore (Sim.run sim ~until:0.5 ());
  let before = Gc.minor_words () in
  ignore (Sim.run sim ());
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  checki "every chain ran out" (n + 64) !fired;
  if words > 2.1 then
    Alcotest.failf "a timed %s allocates %.2f minor words"
      (if after then "after" else "schedule") words

(* A delay the caller computed reaches the kernel as it is: the delay is a
   required argument, so no call wraps it in an option, and a timed
   schedule allocates only the boxed clock its event sets. Each chain
   keeps its computed gap in a mixed record, boxed, as the network holds
   a latency sample and the reliable channel its timeout; the gaps differ,
   so no two events share an instant. *)
type chain = { gap : float; mutable ticks : int }

let timed_schedule_computed_delay_cost () =
  let n = 20_000 in
  let sim = Sim.create () in
  let fired = ref 0 in
  let chains = Array.init 64 (fun i -> { gap = 1. +. (float i *. 1e-6); ticks = 0 }) in
  let ticks =
    Array.map
      (fun c ->
        let rec tick () =
          incr fired;
          c.ticks <- c.ticks + 1;
          if !fired <= n then Sim.schedule sim ~delay:c.gap tick
        in
        tick)
      chains
  in
  Array.iteri (fun i tick -> Sim.schedule sim ~delay:(float i /. 64.) tick) ticks;
  ignore (Sim.run sim ~until:0.5 ());
  let before = Gc.minor_words () in
  ignore (Sim.run sim ());
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  checki "every chain ran out" (n + 64) !fired;
  if words > 2.1 then
    Alcotest.failf "a timed schedule with a computed delay allocates %.2f minor words" words

(* The timed queue resets the slots it vacates: a popped event's closure,
   and what it captures, is collectable once it has run. *)
let sim_timed_pop_releases () =
  let sim = Sim.create () in
  let weak = Weak.create 3 in
  for i = 0 to 2 do
    let boxed = ref i in
    Weak.set weak i (Some boxed);
    Sim.schedule sim ~delay:(float (i + 1)) (fun () -> incr boxed)
  done;
  ignore (Sim.run sim ());
  Gc.full_major ();
  for i = 0 to 2 do
    checkb (Printf.sprintf "event %d collectable" i) false (Weak.check weak i)
  done;
  (* The simulation itself stays live across the collection. *)
  checki "events run" 3 (Sim.events_executed sim)


(* -------------------------------------------------- dispatch oracle *)

(* The engine and both baselines drain each node's inbox with
   [Mailbox.serve] and run subtransactions as staged closures over
   [Sim.after] and [Semaphore.acquire_then]. That must take exactly the
   events of the process shape they replaced: a server process per node
   blocked in its inbox, and a process per unit of work. [Dispatch] runs
   one random node program in both shapes, the process shape on the
   reference kernel's processes ([Sim_oracle]) and the callback shape on
   the library's kernel, and requires the same log, with virtual times,
   the same outcome and the same clock after every [run ~until] segment,
   with exactly one event (and one sequence number) fewer per inbox in
   the callback shape: the server processes' starts. *)

(* A unit of work a message starts: an optional think, the inbox's one
   permit, a sleep holding it, a body that may forward more work, the
   release, then a step that may fail. *)
type item = {
  id : int;
  think : float;
  hold : float;
  forward : (int * float * item) option;  (** inbox, delay, work *)
  fails : bool;  (** raise after the release *)
}

type msg = Work of item | Crash  (** the handler raises *)

type dstep =
  | Send of float * int * msg  (** deliver after a delay *)
  | Pause of float * int * float  (** after a delay, pause an inbox for a while *)
  | Segment of float option  (** [run ?until] *)

(* What both shapes share: the program's deliveries and pauses, and what
   a node does with a message. [put] queues a message in an inbox of the
   shape's own kind. *)
module Dispatch (K : KERNEL) = struct
  type st = {
    sim : K.t;
    paused_until : float array;
    mutable put : int -> msg -> unit;
    mutable log : string list;  (* newest first *)
  }

  let create n =
    { sim = K.create (); paused_until = Array.make n 0.; put = (fun _ _ -> ()); log = [] }

  let note st fmt =
    Printf.ksprintf (fun s -> st.log <- Printf.sprintf "%s@%h" s (K.now st.sim) :: st.log) fmt

  let describe = function Work w -> Printf.sprintf "w%d" w.id | Crash -> "crash"

  let deliver st ~delay dst msg =
    K.schedule st.sim ~delay (fun () ->
        note st "%s arrives at n%d" (describe msg) dst;
        st.put dst msg)

  let work_name i w = Printf.sprintf "n%d/w%d" i w.id

  (* How long inbox [i] holds the message it took: until its pause ends. *)
  let hold st i = st.paused_until.(i) -. K.now st.sim

  (* What both shapes do with a message; [start] runs the work. *)
  let handle st i msg ~start =
    note st "n%d takes %s" i (describe msg);
    match msg with Work w -> start w | Crash -> failwith (Printf.sprintf "n%d" i)

  let body st i w =
    note st "n%d runs w%d" i w.id;
    Option.iter (fun (dst, delay, w') -> deliver st ~delay dst (Work w')) w.forward

  let released st i w =
    note st "n%d released w%d" i w.id;
    if w.fails then failwith (work_name i w)

  let step st = function
    | Send (delay, dst, msg) ->
        deliver st ~delay dst msg;
        None
    | Pause (delay, i, dur) ->
        K.schedule st.sim ~delay (fun () ->
            note st "n%d pauses" i;
            st.paused_until.(i) <- Float.max st.paused_until.(i) (K.now st.sim +. dur));
        None
    | Segment until -> Some (K.run st.sim ?until ())
end

(* The process shape: a daemon process per inbox and a process per item,
   on the reference kernel. Inboxes and the one-permit semaphores are
   blocking boxes on its [suspend]: a put hands the value to the oldest
   blocked taker, as the library's blocking receive and acquire did. *)
module Processes = struct
  include Dispatch (Reference)

  type 'a box = { items : 'a Queue.t; waiters : ('a -> unit) Queue.t }

  let box () = { items = Queue.create (); waiters = Queue.create () }

  let put b x =
    match Queue.take_opt b.waiters with Some wake -> wake x | None -> Queue.add x b.items

  let take sim b =
    if Queue.is_empty b.items then Sim_oracle.suspend sim (fun wake -> Queue.add wake b.waiters)
    else Queue.take b.items

  let install st =
    let inboxes = Array.map (fun _ -> box ()) st.paused_until in
    st.put <- (fun i msg -> put inboxes.(i) msg);
    Array.iteri
      (fun i inbox ->
        let cc = box () in
        put cc ();
        Sim_oracle.spawn st.sim ~daemon:true ~name:(Printf.sprintf "node-%d" i) (fun () ->
            let rec loop () =
              let msg = take st.sim inbox in
              if hold st i > 0. then Sim_oracle.sleep st.sim (hold st i);
              handle st i msg ~start:(fun w ->
                  Sim_oracle.spawn st.sim ~name:(work_name i w) (fun () ->
                      if w.think > 0. then Sim_oracle.sleep st.sim w.think;
                      take st.sim cc;
                      if w.hold > 0. then Sim_oracle.sleep st.sim w.hold;
                      body st i w;
                      put cc ();
                      released st i w));
              loop ()
            in
            loop ()))
      inboxes
end

(* The callback shape, as the engine and the baselines run it: the
   library drain over each inbox, holding a message across a pause, and a
   unit of work as one closure that every hand-over resumes, with a stage
   counter naming its next step. *)
module Callbacks = struct
  include Dispatch (Fifo)

  let install st =
    let inboxes = Array.map (fun _ -> Mailbox.create ()) st.paused_until in
    st.put <- (fun i msg -> Mailbox.send inboxes.(i) msg);
    Array.iteri
      (fun i inbox ->
        let cc = Semaphore.create 1 in
        let start w =
          let stage = ref 0 in
          let rec resume () =
            try
              match !stage with
              | 0 ->
                  stage := 1;
                  if w.think > 0. then Sim.after st.sim w.think resume else resume ()
              | 1 ->
                  stage := 2;
                  Semaphore.acquire_then st.sim cc resume
              | 2 ->
                  stage := 3;
                  if w.hold > 0. then Sim.after st.sim w.hold resume else resume ()
              | _ ->
                  body st i w;
                  Semaphore.release cc;
                  released st i w
            with exn -> Sim.fail st.sim (work_name i w) exn
          in
          Sim.schedule st.sim ~delay:0. resume
        in
        let name = Printf.sprintf "node-%d" i in
        Mailbox.serve st.sim inbox ~name (fun msg next ->
            if hold st i > 0. then
              Sim.after st.sim (hold st i) (fun () ->
                  try
                    handle st i msg ~start;
                    next ()
                  with exn -> Sim.fail st.sim name exn)
            else begin
              handle st i msg ~start;
              next ()
            end))
      inboxes
end

(* Runs [(n, steps)] in both shapes, finishing with an unbounded run and
   stopping after a failure (a failed run is over). [None] if every
   segment agreed, else the first step where they differ. *)
let dispatch_divergence (n, steps) =
  let a = Processes.create n and b = Callbacks.create n in
  Processes.install a;
  Callbacks.install b;
  let rec go i = function
    | [] -> None
    | step :: rest -> (
        match (Processes.step a step, Callbacks.step b step) with
        | None, None -> go (i + 1) rest
        | Some oa, Some ob
          when oa = ob
               && a.Processes.log = b.Callbacks.log
               && Sim_oracle.now a.sim = Sim.now b.sim
               && Sim_oracle.events_executed a.sim - Sim.events_executed b.sim = n
               && Sim_oracle.last_seq a.sim - Sim.last_seq b.sim = n ->
            if String.starts_with ~prefix:"failure" oa then None else go (i + 1) rest
        | _ -> Some i)
  in
  go 0 (steps @ [ Segment None ])

let gen_dispatch =
  QCheck.Gen.(
    let delay = oneofl [ 0.; 0.; 1e-20; 0.25; 0.5; 1.0 ] in
    let* n = int_range 2 4 in
    let inbox = int_bound (n - 1) in
    let item =
      fix
        (fun self depth ->
          let* id = int_bound 999 in
          let* think = oneofl [ 0.; 0.; 0.25; 0.5 ] in
          let* hold = oneofl [ 0.; 0.25; 0.5; 1e-20 ] in
          let* fails = frequencyl [ (40, false); (1, true) ] in
          let* forward =
            if depth = 0 then return None
            else
              frequency
                [
                  (2, return None);
                  (1, map3 (fun dst d w -> Some (dst, d, w)) inbox delay (self (depth - 1)));
                ]
          in
          return { id; think; hold; forward; fails })
        2
    in
    let msg = frequency [ (60, map (fun w -> Work w) item); (1, return Crash) ] in
    let* steps =
      list_size (int_range 1 14)
        (frequency
           [
             (6, map3 (fun d dst m -> Send (d, dst, m)) delay inbox msg);
             ( 1,
               map3
                 (fun d i dur -> Pause (d, i, dur))
                 delay inbox
                 (oneofl [ 0.25; 0.5; 1.0 ]) );
             ( 2,
               map
                 (fun u -> Segment u)
                 (oneofl [ None; Some 0.; Some 0.25; Some 0.5; Some 1.0; Some 1.5 ]) );
           ])
    in
    return (n, steps))

let dispatch_property =
  QCheck.Test.make ~name:"callback dispatch == node and work processes" ~count:1000
    (QCheck.make gen_dispatch) (fun prog ->
      match dispatch_divergence prog with
      | None -> true
      | Some i -> QCheck.Test.fail_reportf "observations differ after step %d" i)

(* A fixed program that contends for one permit at one instant, forwards
   across inboxes, pauses an inbox with work queued and ends in a failure
   after a release, so each hand-over is exercised whatever the draws. *)
let dispatch_fixed_program () =
  let w ?(think = 0.) ?(hold = 0.) ?forward ?(fails = false) id =
    { id; think; hold; forward; fails }
  in
  let steps =
    List.init 6 (fun k -> Send (0., 0, Work (w ~hold:0.25 ~forward:(1, 0., w (10 + k)) k)))
    @ [
        Pause (0.1, 1, 0.5);
        Send (0.2, 1, Work (w ~think:0.25 ~hold:1e-20 20));
        Segment (Some 0.5);
        Send (0., 2, Work (w ~hold:0.25 21));
        Send (0., 2, Work (w 22 ~fails:true));
        Segment None;
      ]
  in
  checkb "same observations" true (dispatch_divergence (3, steps) = None)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ heap_sort_property; heap_model_property ]

let () =
  Alcotest.run "simul"
    [
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick heap_basic;
          Alcotest.test_case "empty pop" `Quick heap_empty_pop;
          Alcotest.test_case "peek/clear" `Quick heap_peek_clear;
          Alcotest.test_case "pop clears slots (no GC pin)" `Quick
            heap_no_pin_after_pop;
          Alcotest.test_case "clear releases elements" `Quick
            heap_clear_releases;
        ]
        @ qsuite );
      ( "sim",
        [
          Alcotest.test_case "schedule order" `Quick sim_schedule_order;
          Alcotest.test_case "fifo at same time" `Quick sim_fifo_same_time;
          Alcotest.test_case "sleep advances clock" `Quick
            sim_sleep_advances_clock;
          Alcotest.test_case "determinism" `Quick sim_determinism;
          Alcotest.test_case "until limit resumable" `Quick sim_until_limit;
          Alcotest.test_case "process failure" `Quick sim_process_failure;
          Alcotest.test_case "process failure printed" `Quick
            sim_process_failure_printed;
          Alcotest.test_case "negative delay rejected" `Quick
            sim_event_in_past_rejected;
          Alcotest.test_case "events executed counts" `Quick
            sim_events_executed_counts;
          Alcotest.test_case "fifo growth keeps the order" `Quick
            sim_fifo_growth_order;
          Alcotest.test_case "reserved numbers keep the order" `Quick sim_reserved_order;
          Alcotest.test_case "deep timed queue keeps the order" `Quick
            sim_deep_queue_order;
          Alcotest.test_case "timed schedule cost" `Quick (timed_event_cost ~after:false);
          Alcotest.test_case "timed after cost" `Quick (timed_event_cost ~after:true);
          Alcotest.test_case "timed schedule cost, computed delay" `Quick
            timed_schedule_computed_delay_cost;
          Alcotest.test_case "timed pop releases events" `Quick sim_timed_pop_releases;
          QCheck_alcotest.to_alcotest kernel_order_property;
          Alcotest.test_case "callback dispatch, fixed program" `Quick
            dispatch_fixed_program;
          QCheck_alcotest.to_alcotest dispatch_property;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "basic" `Quick ivar_basic;
          Alcotest.test_case "double fill" `Quick ivar_double_fill;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick mailbox_fifo;
          Alcotest.test_case "take" `Quick mailbox_take;
          Alcotest.test_case "callback wake cost" `Quick mailbox_callback_wake_cost;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "mutual exclusion" `Quick
            semaphore_mutual_exclusion;
          Alcotest.test_case "counting" `Quick semaphore_counting;
        ] );
    ]
