(* Tests for the 3V protocol engine: §4.1/§4.2 execution, §4.3 advancement
   and garbage collection, §3.2 compensation, §5 NC3V, and the §4.4
   properties — including the quiescence-soundness oracle under randomized
   churn. *)

module Sim = Simul.Sim
module Ivar = Simul.Ivar
module Latency = Netsim.Latency
module Mvstore = Store.Mvstore
module Spec = Txn.Spec
module Op = Txn.Op
module Key = Store.Key
module Value = Txn.Value
module Result = Txn.Result
module Engine = Threev.Engine
module Policy = Threev.Policy
module Counters = Threev.Counters
module Trace = Threev.Trace
module Id_ring = Threev.Id_ring

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* ---------------------------------------------------------- counters *)

let counters_basic () =
  let c = Counters.create ~census:(Counters.census ()) ~nodes:3 in
  checki "zero" 0 (Counters.r c ~version:1 ~dst:2);
  Counters.incr_r c ~version:1 ~dst:2;
  Counters.incr_r c ~version:1 ~dst:2;
  Counters.incr_c c ~version:1 ~src:0;
  checki "r" 2 (Counters.r c ~version:1 ~dst:2);
  checki "c" 1 (Counters.c c ~version:1 ~src:0);
  (* Sparse snapshots hold one (peer, count) entry per nonzero count of
     the dense row [| 0; 0; 2 |] and column [| 1; 0; 0 |]. *)
  let entry peer count = Repl.Quorum.entry ~peer ~count in
  checkb "snapshot r" true (Counters.sparse_r c ~version:1 = [| entry 2 2 |]);
  checkb "snapshot c" true (Counters.sparse_c c ~version:1 = [| entry 0 1 |]);
  checkb "snapshot of unknown version is empty" true
    (Counters.sparse_r c ~version:9 = [||])

let counters_gc () =
  let c = Counters.create ~census:(Counters.census ()) ~nodes:2 in
  Counters.incr_r c ~version:1 ~dst:0;
  Counters.incr_r c ~version:2 ~dst:0;
  Counters.incr_r c ~version:3 ~dst:0;
  Alcotest.(check (list int)) "versions" [ 1; 2; 3 ] (Counters.versions c);
  Counters.gc_below c 3;
  Alcotest.(check (list int)) "after gc" [ 3 ] (Counters.versions c);
  checki "gc'd reads as zero" 0 (Counters.r c ~version:1 ~dst:0)

(* ------------------------------------------------------------ codec *)

let codec_basics () =
  let module C = Threev.Version_codec in
  checki "codes" 3 C.codes;
  checki "encode 0" 0 (C.encode 0);
  checki "encode 7" 1 (C.encode 7);
  checki "decode same" 5 (C.decode ~near:5 (C.encode 5));
  checki "decode lag" 4 (C.decode ~near:5 (C.encode 4));
  checki "decode lead" 6 (C.decode ~near:5 (C.encode 6));
  Alcotest.check_raises "negative version"
    (Invalid_argument "Version_codec.encode: negative version") (fun () ->
      ignore (C.encode (-1)));
  Alcotest.check_raises "bad code"
    (Invalid_argument "Version_codec.decode: code out of range") (fun () ->
      ignore (C.decode ~near:3 7))

let codec_roundtrip_property =
  QCheck.Test.make ~name:"codec roundtrips exactly within distance 1"
    ~count:500
    QCheck.(pair (int_range 0 1000) (int_range (-3) 3))
    (fun (near, delta) ->
      let module C = Threev.Version_codec in
      let v = near + delta in
      if v < 0 then true
      else if abs delta <= 1 then C.decode ~near (C.encode v) = v
      else
        (* Outside the window the decode must NOT silently return v. *)
        (try C.decode ~near (C.encode v) <> v with Invalid_argument _ -> true))

(* ------------------------------------------------------------- trace *)

let trace_basics () =
  let t = Trace.create () in
  Trace.emit t ~time:1. ~site:"p" "alpha happens";
  Trace.emit t ~time:2. ~site:"q" "beta happens";
  checki "length" 2 (Trace.length t);
  checki "find" 1 (List.length (Trace.find t "beta"));
  checkb "render mentions site header" true
    (String.length (Trace.render t ~sites:[ "p"; "q" ]) > 0)

let trace_ring_bounds () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.emit t ~time:(float_of_int i) ~site:"p" (Printf.sprintf "ev%d" i)
  done;
  checki "bounded" 4 (Trace.length t);
  checki "total counts everything" 10 (Trace.total t);
  checki "dropped = total - length" 6 (Trace.dropped t);
  (* Oldest-first, and only the newest [capacity] events retained. *)
  checkb "retains the tail" true
    (List.map (fun (e : Trace.event) -> e.Trace.what) (Trace.events t)
    = [ "ev7"; "ev8"; "ev9"; "ev10" ]);
  checkb "evicted events not found" true (Trace.find t "ev3" = []);
  checki "retained events found" 1 (List.length (Trace.find t "ev8"))

(* The documented invariant: [length] always agrees with the materialized
   list, below and above capacity, and after clear. *)
let trace_length_invariant () =
  let t = Trace.create ~capacity:8 () in
  for i = 1 to 20 do
    Trace.emit t ~time:(float_of_int i) ~site:"p" "x";
    checki "length = |events|"
      (List.length (Trace.events t))
      (Trace.length t);
    checkb "length <= capacity" true (Trace.length t <= Trace.capacity t)
  done;
  Trace.clear t;
  checki "cleared" 0 (Trace.length t);
  checki "cleared total" 0 (Trace.total t);
  checki "still capacity 8" 8 (Trace.capacity t)

(* A whole engine run emits thousands of events through a 64-slot ring:
   retention stays at capacity (the ring evicts, it never grows) and the
   length invariant holds on a real event stream. *)
let trace_ring_over_a_run () =
  let cap = 64 in
  let sim = Sim.create ~seed:7 () in
  let trace = Trace.create ~capacity:cap () in
  let cfg =
    {
      (Engine.default_config ~nodes:8) with
      Engine.latency = Latency.Exponential 0.002;
      think_time = 0.0001;
      policy = Policy.Periodic 0.25;
    }
  in
  let engine = Engine.create sim cfg ~trace () in
  let gen =
    Workload.Synthetic.generator
      {
        (Workload.Synthetic.default ~nodes:8) with
        Workload.Synthetic.arrival_rate = 1200.;
        fanout = 2;
      }
  in
  let outcome =
    Harness.Runner.drive sim (Engine.packed engine) gen
      {
        Harness.Runner.seed = 7;
        duration = 0.3;
        settle = 1.5;
        max_txns = 5_000;
      }
  in
  checkb "committed some" true (outcome.Harness.Runner.committed > 0);
  checkb "the run evicts" true (Trace.total trace > cap);
  checkb "retention within capacity" true (Trace.length trace <= cap);
  checki "length = |events|" (List.length (Trace.events trace))
    (Trace.length trace)

let trace_bad_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Trace.create: capacity must be positive") (fun () ->
      ignore (Trace.create ~capacity:0 ()))

(* ----------------------------------------------------- basic engine *)

let make_engine ?(nodes = 3) ?(cfg_f = fun c -> c) ?seed () =
  let sim = Sim.create ?seed () in
  let cfg = cfg_f (Engine.default_config ~nodes) in
  (sim, Engine.create sim cfg ())

let update_then_read ~advance () =
  let sim, eng = make_engine () in
  let upd =
    Spec.make ~id:1
      (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Incr (Key.intern "b", 2.) ] ] 0
         [ Op.Incr (Key.intern "a", 1.) ])
  in
  let r1 = Engine.submit eng upd in
  ignore (Sim.run sim ~until:1.0 ());
  checkb "update committed" true
    (match Ivar.peek r1 with
    | Some res -> Result.committed res
    | None -> false);
  if advance then begin
    let adv = Engine.advance eng in
    ignore (Sim.run sim ~until:2.0 ());
    checkb "advancement done" true (Ivar.is_full adv)
  end;
  let rd =
    Spec.make ~id:2
      (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Read (Key.intern "b") ] ] 0
         [ Op.Read (Key.intern "a") ])
  in
  let r2 = Engine.submit eng rd in
  ignore (Sim.run sim ~until:3.0 ());
  match Ivar.peek r2 with
  | Some res ->
      let amount key = (List.assoc (Key.intern key) res.Result.reads).Value.amount in
      if advance then begin
        checkf "a visible" 1. (amount "a");
        checkf "b visible" 2. (amount "b")
      end
      else begin
        checkf "a hidden" 0. (amount "a");
        checkf "b hidden" 0. (amount "b")
      end
  | None -> Alcotest.fail "read did not finish"

let reads_use_old_version () = update_then_read ~advance:false ()
let advancement_publishes () = update_then_read ~advance:true ()

let update_does_not_block_on_children () =
  (* The submitter-visible (blocking) latency of an update is the root's
     local work only — children run asynchronously behind slow links. *)
  let sim, eng =
    make_engine
      ~cfg_f:(fun c -> { c with Engine.latency = Latency.Constant 10.0 })
      ()
  in
  let upd =
    Spec.make ~id:1
      (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Incr (Key.intern "b", 1.) ] ] 0
         [ Op.Incr (Key.intern "a", 1.) ])
  in
  let r = Engine.submit eng upd in
  ignore (Sim.run sim ~until:100.0 ());
  match Ivar.peek r with
  | Some res ->
      checkb "root commit fast despite 10s links" true
        (Result.blocking_latency res < 0.1);
      checkb "settlement waits for the tree" true (Result.latency res > 10.)
  | None -> Alcotest.fail "did not finish"

(* An engine with nothing to do schedules nothing: with the manual policy,
   no failure detector and no watchdog, each coordinator waits for its
   first request without an event, at one shard and at four. *)
let idle_engine_runs_no_event () =
  List.iter
    (fun shards ->
      let sim = Sim.create () in
      ignore
        (Engine.create sim
           { (Engine.default_config ~nodes:4) with Engine.shards; policy = Policy.Manual }
           ());
      checkb "idle run completes" true (Sim.run sim () = Sim.Completed);
      checki (Printf.sprintf "events at S=%d" shards) 0 (Sim.events_executed sim))
    [ 1; 4 ]

let versions_advance_globally () =
  let sim, eng = make_engine () in
  checki "vu init" 1 (Engine.update_version eng ~node:0);
  checki "vr init" 0 (Engine.read_version eng ~node:0);
  let adv = Engine.advance eng in
  ignore (Sim.run sim ~until:5.0 ());
  checkb "done" true (Ivar.is_full adv);
  for n = 0 to 2 do
    checki "vu" 2 (Engine.update_version eng ~node:n);
    checki "vr" 1 (Engine.read_version eng ~node:n)
  done;
  checki "advancements" 1 (Engine.advancements_completed eng)

let multiple_advancements () =
  let sim, eng = make_engine () in
  for i = 1 to 3 do
    let upd =
      Spec.make ~id:i
        (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Incr (Key.intern "b", 1.) ] ] 0
           [ Op.Incr (Key.intern "a", 1.) ])
    in
    ignore (Engine.submit eng upd);
    let adv = Engine.advance eng in
    ignore (Sim.run sim ~until:(float_of_int i *. 10.) ());
    checkb "advancement completes" true (Ivar.is_full adv)
  done;
  checki "three rounds" 3 (Engine.advancements_completed eng);
  (* After three advancements with all txns settled, each item holds a
     single version again (GC collapsed the rest). *)
  let store = Engine.store eng ~node:0 in
  checkb "a collapsed" true (List.length (Mvstore.versions_of store ~key:(Key.intern "a")) <= 2)

let implicit_notification () =
  (* A child carrying a higher version reaches a node before the
     coordinator's notice: the node must advance its update version
     immediately (§2.3 / §4.1 step 2). *)
  let sim = Sim.create () in
  let slow_to_1 ~src ~dst =
    (* The coordinator (node index 2 is the coordinator in a 2-node system)
       is slow towards node 1; everything else fast. *)
    if src = 2 && dst = 1 then Some (Latency.Constant 5.0)
    else Some (Latency.Constant 0.01)
  in
  let cfg =
    { (Engine.default_config ~nodes:2) with Engine.think_time = 0.001 }
  in
  let eng = Engine.create sim cfg ~link_latency:slow_to_1 () in
  Script.(
    run sim
      [
        Do (fun () -> ignore (Engine.advance eng));
        (* Give node 0 its notice, then submit an update there that spawns a
           child onto the still-unnotified node 1. *)
        Wait 0.1;
        Do
          (fun () ->
            checki "node 0 notified" 2 (Engine.update_version eng ~node:0);
            checki "node 1 not yet" 1 (Engine.update_version eng ~node:1);
            let upd =
              Spec.make ~id:1
                (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Incr (Key.intern "y", 1.) ] ] 0
                   [ Op.Incr (Key.intern "x", 1.) ])
            in
            ignore (Engine.submit eng upd));
        Wait 0.2;
        (* The child arrived with version 2 — implicit notification. *)
        Do (fun () -> checki "node 1 advanced implicitly" 2 (Engine.update_version eng ~node:1));
      ]);
  ignore (Sim.run sim ~until:20.0 ())

let dual_write_on_straggler () =
  (* Reproduce §2.3's iq-on-D situation end to end: a version-1 subtxn
     arrives at a node already on version 2 where the item has a version-2
     copy; the write must land in both. *)
  let sim = Sim.create () in
  let link ~src ~dst =
    if src = 0 && dst = 1 then Some (Latency.Constant 2.0)
    else Some (Latency.Constant 0.01)
  in
  let cfg = { (Engine.default_config ~nodes:2) with Engine.think_time = 0.001 } in
  let eng = Engine.create sim cfg ~link_latency:link () in
  (* Preload d at version 0 so copies have a base. *)
  Mvstore.write_exact (Engine.store eng ~node:1) ~key:(Key.intern "d") ~version:0
    ~init:Value.empty ~f:Fun.id;
  Script.(
    run sim
      [
        (* Old-version update i spawns a slow child to node 1. *)
        Do
          (fun () ->
            let i_spec =
              Spec.make ~id:1
                (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Incr (Key.intern "d", 1.) ] ] 0
                   [ Op.Incr (Key.intern "c", 1.) ])
            in
            ignore (Engine.submit eng i_spec));
        Wait 0.1;
        Do (fun () -> ignore (Engine.advance eng));
        Wait 0.3;
        (* Version-2 update j writes d at node 1, materializing d(2). *)
        Do
          (fun () ->
            let j_spec = Spec.make ~id:2 (Spec.subtxn 1 [ Op.Incr (Key.intern "d", 10.) ]) in
            ignore (Engine.submit eng j_spec));
      ]);
  ignore (Sim.run sim ~until:30.0 ());
  let store = Engine.store eng ~node:1 in
  (* Advancement completed long ago; i's straggler landed in both copies.
     After GC only versions >= 1 remain. *)
  let v1 = Mvstore.read_exact store ~key:(Key.intern "d") ~version:1 in
  let v2 = Mvstore.read_exact store ~key:(Key.intern "d") ~version:2 in
  (match (v1, v2) with
  | Some a, Some b ->
      checkf "v1 has i only" 1. a.Value.amount;
      checkf "v2 has i and j" 11. b.Value.amount
  | _ -> Alcotest.fail "expected two versions of d");
  checki "engine saw a dual write" 1 (Mvstore.dual_writes store)

let compensation_nets_to_zero () =
  let sim, eng =
    make_engine ~cfg_f:(fun c -> { c with Engine.abort_probability = 1.0 }) ()
  in
  (* Three-level tree revisiting node 0: the compensation wave must undo
     every level, including the grandchild's write back at the root node. *)
  let upd =
    Spec.make ~id:1
      (Spec.subtxn
         ~children:
           [
             Spec.subtxn
               ~children:[ Spec.subtxn 0 [ Op.Incr (Key.intern "c", 7.) ] ]
               1
               [ Op.Incr (Key.intern "b", 5.) ];
           ]
         0
         [ Op.Incr (Key.intern "a", 3.) ])
  in
  let r = Engine.submit eng upd in
  ignore (Sim.run sim ~until:1.0 ());
  (match Ivar.peek r with
  | Some res ->
      checkb "reported compensated" true (res.Result.outcome = Result.Aborted "compensated")
  | None -> Alcotest.fail "not finished");
  (* Termination detection must still work with compensating subtxns in
     the tree (§4.3's point about compensation and counters). *)
  let adv = Engine.advance eng in
  ignore (Sim.run sim ~until:5.0 ());
  checkb "advancement completes despite compensation" true (Ivar.is_full adv);
  let amount node key =
    match Mvstore.read_visible (Engine.store eng ~node) ~key:(Key.intern key) ~version:10 with
    | Some (_, v) -> v.Value.amount
    | None -> 0.
  in
  checkf "a netted" 0. (amount 0 "a");
  checkf "b netted" 0. (amount 1 "b");
  checkf "c netted" 0. (amount 0 "c")

let empty_root_front_end () =
  (* Figure 1: the front-end's root subtransaction has no operations. *)
  let sim, eng = make_engine () in
  let spec =
    Spec.make ~id:1
      (Spec.subtxn
         ~children:
           [
             Spec.subtxn 1 [ Op.Incr (Key.intern "x", 1.) ];
             Spec.subtxn 2 [ Op.Incr (Key.intern "y", 1.) ];
           ]
         0 [])
  in
  let r = Engine.submit eng spec in
  ignore (Sim.run sim ~until:2.0 ());
  checkb "committed through empty root" true
    (match Ivar.peek r with Some res -> Result.committed res | None -> false)

let revisiting_node () =
  (* A transaction tree that visits node 0 twice (root plus grandchild),
     like i -> iq -> iqp in Table 1. *)
  let sim, eng = make_engine () in
  let spec =
    Spec.make ~id:1
      (Spec.subtxn
         ~children:
           [
             Spec.subtxn
               ~children:[ Spec.subtxn 0 [ Op.Incr (Key.intern "back", 1.) ] ]
               1
               [ Op.Incr (Key.intern "mid", 1.) ];
           ]
         0
         [ Op.Incr (Key.intern "front", 1.) ])
  in
  let r = Engine.submit eng spec in
  let adv = Engine.advance eng in
  ignore (Sim.run sim ~until:5.0 ());
  checkb "committed" true
    (match Ivar.peek r with Some res -> Result.committed res | None -> false);
  checkb "advancement completes" true (Ivar.is_full adv)

(* --------------------------------------------------------- policies *)

let periodic_policy_runs () =
  let sim, eng =
    make_engine ~cfg_f:(fun c -> { c with Engine.policy = Policy.Periodic 0.1 }) ()
  in
  ignore (Sim.run sim ~until:1.05 ());
  checkb "several advancements" true (Engine.advancements_completed eng >= 5)

let count_policy_runs () =
  let sim, eng =
    make_engine
      ~cfg_f:(fun c -> { c with Engine.policy = Policy.Every_n_updates 5 })
      ()
  in
  (* Two batches of 5, far enough apart that the triggers don't coalesce. *)
  for i = 1 to 5 do
    ignore (Engine.submit eng (Spec.make ~id:i (Spec.subtxn 0 [ Op.Incr (Key.intern "k", 1.) ])))
  done;
  ignore (Sim.run sim ~until:5.0 ());
  checki "first batch triggered" 1 (Engine.advancements_completed eng);
  for i = 6 to 10 do
    ignore (Engine.submit eng (Spec.make ~id:i (Spec.subtxn 0 [ Op.Incr (Key.intern "k", 1.) ])))
  done;
  ignore (Sim.run sim ~until:10.0 ());
  checki "second batch triggered" 2 (Engine.advancements_completed eng);
  (* Four more updates: below the threshold, no further advancement. *)
  for i = 11 to 14 do
    ignore (Engine.submit eng (Spec.make ~id:i (Spec.subtxn 0 [ Op.Incr (Key.intern "k", 1.) ])))
  done;
  ignore (Sim.run sim ~until:15.0 ());
  checki "below threshold" 2 (Engine.advancements_completed eng)

let divergence_policy_runs () =
  let sim, eng =
    make_engine
      ~cfg_f:(fun c -> { c with Engine.policy = Policy.Divergence 100. })
      ()
  in
  (* 40 units of accumulated delta: below the threshold, no advancement. *)
  for i = 1 to 4 do
    ignore
      (Engine.submit eng (Spec.make ~id:i (Spec.subtxn 0 [ Op.Incr (Key.intern "k", 10.) ])))
  done;
  ignore (Sim.run sim ~until:5.0 ());
  checki "below threshold" 0 (Engine.advancements_completed eng);
  (* One big recording pushes past it. *)
  ignore
    (Engine.submit eng (Spec.make ~id:5 (Spec.subtxn 0 [ Op.Incr (Key.intern "k", 70.) ])));
  ignore (Sim.run sim ~until:10.0 ());
  checki "threshold crossed" 1 (Engine.advancements_completed eng);
  (* Reads and appends accumulate no divergence. *)
  for i = 6 to 20 do
    ignore
      (Engine.submit eng
         (Spec.make ~id:i
            (Spec.subtxn 0 [ Op.Read (Key.intern "k"); Op.Append (Key.intern "k", "e") ])))
  done;
  ignore (Sim.run sim ~until:15.0 ());
  checki "no divergence from reads/appends" 1
    (Engine.advancements_completed eng)

let reads_do_not_trigger_count_policy () =
  let sim, eng =
    make_engine
      ~cfg_f:(fun c -> { c with Engine.policy = Policy.Every_n_updates 2 })
      ()
  in
  for i = 1 to 10 do
    ignore (Engine.submit eng (Spec.make ~id:i (Spec.subtxn 0 [ Op.Read (Key.intern "k") ])))
  done;
  ignore (Sim.run sim ~until:5.0 ());
  checki "reads don't count" 0 (Engine.advancements_completed eng)

(* ------------------------------------------------------------- NC3V *)

let nc_engine ?seed () =
  make_engine ?seed
    ~cfg_f:(fun c ->
      { c with Engine.nc_mode = true; deadlock_timeout = 0.2 })
    ()

let nc_commit_applies_writes () =
  let sim, eng = nc_engine () in
  let spec =
    Spec.make ~id:1
      (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Overwrite (Key.intern "q1", 7.) ] ] 0
         [ Op.Overwrite (Key.intern "p1", 5.) ])
  in
  checkb "classified NC" true (spec.Spec.kind = Spec.Non_commuting);
  let r = Engine.submit eng spec in
  ignore (Sim.run sim ~until:2.0 ());
  checkb "committed" true
    (match Ivar.peek r with Some res -> Result.committed res | None -> false);
  let amount node key =
    match Mvstore.read_visible (Engine.store eng ~node) ~key:(Key.intern key) ~version:10 with
    | Some (_, v) -> v.Value.amount
    | None -> nan
  in
  checkf "p1 written" 5. (amount 0 "p1");
  checkf "q1 written" 7. (amount 1 "q1")

let nc_abort_discards_writes () =
  (* Two NC transactions colliding head-on: the deadlock victim's buffered
     writes must never surface. *)
  let sim, eng = nc_engine () in
  let mk id a b =
    Spec.make ~id
      (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Overwrite (Key.intern b, float_of_int id) ] ]
         0
         [ Op.Overwrite (Key.intern a, float_of_int id) ])
  in
  let r1 = Engine.submit eng (mk 1 "k1" "k2") in
  let r2 = Engine.submit eng (mk 2 "k2" "k1") in
  ignore (Sim.run sim ~until:5.0 ());
  let outcomes =
    List.map
      (fun r -> match Ivar.peek r with Some res -> Result.committed res | None -> false)
      [ r1; r2 ]
  in
  checkb "both resolved, not both aborted" true
    (List.length (List.filter Fun.id outcomes) >= 1);
  (* Whatever committed owns both keys with its own id as the value. *)
  let amount node key =
    match Mvstore.read_visible (Engine.store eng ~node) ~key:(Key.intern key) ~version:10 with
    | Some (_, v) -> Some v.Value.amount
    | None -> None
  in
  (match (amount 0 "k1", amount 1 "k2") with
  | Some a, Some b ->
      checkb "consistent winner" true (a = b)
  | None, None -> checkb "both aborted is acceptable" true true
  | _ -> Alcotest.fail "half-applied NC transaction");
  (* Advancement still terminates with NC traffic accounted. *)
  let adv = Engine.advance eng in
  ignore (Sim.run sim ~until:10.0 ());
  checkb "advancement ok" true (Ivar.is_full adv)

let nc_version_overtake_abort () =
  (* §5 step 4: an NC transaction that finds its key already written in a
     higher version must abort. *)
  let sim, eng = nc_engine () in
  Script.(
    run sim
      [
        (* Commit a commuting write of key z in version 1, then advance so a
           version-2 copy exists... *)
        Do
          (fun () ->
            ignore
              (Engine.submit eng
                 (Spec.make ~id:1 (Spec.subtxn 0 [ Op.Incr (Key.intern "z", 1.) ]))));
        Wait 0.1;
        (* Write z in version 2 (new vu after phase 1) while an NC txn
           assigned version 1... we instead engineer directly: advance fully,
           then write z at version 3 via a commuting update after yet another
           phase-1, and submit an NC txn that was assigned the older vu. *)
        Do (fun () -> ignore (Engine.advance eng));
      ]);
  ignore (Sim.run sim ~until:5.0 ());
  (* Now vu = 2 everywhere. Manually materialize a version-3 copy of z to
     simulate an in-flight higher-version write, then run an NC txn at
     vu = 2: it must abort with version-overtaken. *)
  Mvstore.write_exact (Engine.store eng ~node:0) ~key:(Key.intern "z") ~version:3
    ~init:Value.empty ~f:(Value.incr ~txn:99 ~delta:1.);
  let r =
    Engine.submit eng (Spec.make ~id:2 (Spec.subtxn 0 [ Op.Overwrite (Key.intern "z", 5.) ]))
  in
  ignore (Sim.run sim ~until:10.0 ());
  match Ivar.peek r with
  | Some res ->
      checkb "aborted by overtake rule" true
        (res.Result.outcome = Result.Aborted "version-overtaken")
  | None -> Alcotest.fail "nc txn did not resolve"

let nc_waits_for_advancement () =
  (* §5 step 2: an NC root arriving mid-advancement (vu = vr + 2) waits
     until the read version catches up. *)
  let sim = Sim.create () in
  let slow_coord ~src ~dst =
    ignore dst;
    (* Coordinator index is 2 for a 2-node engine; make everything it sends
       slow so the advancement window is wide. *)
    if src = 2 then Some (Latency.Constant 1.0) else Some (Latency.Constant 0.01)
  in
  let cfg =
    {
      (Engine.default_config ~nodes:2) with
      Engine.nc_mode = true;
      think_time = 0.001;
    }
  in
  let eng = Engine.create sim cfg ~link_latency:slow_coord () in
  let r = ref None in
  Script.(
    run sim
      [
        Do (fun () -> ignore (Engine.advance eng));
        (* Wait until node 0 has switched vu (phase 1 notice arrives at 1.0)
           but vr has not advanced yet. *)
        Wait 1.5;
        Do
          (fun () ->
            checki "mid-advancement vu" 2 (Engine.update_version eng ~node:0);
            checki "mid-advancement vr" 0 (Engine.read_version eng ~node:0);
            let spec = Spec.make ~id:1 (Spec.subtxn 0 [ Op.Overwrite (Key.intern "w", 1.) ]) in
            r := Some (Engine.submit eng spec));
      ]);
  ignore (Sim.run sim ~until:30.0 ());
  match !r with
  | Some ivar -> (
      match Ivar.peek ivar with
      | Some res ->
          checkb "committed after waiting" true (Result.committed res);
          (* It executed in version 2 and can only have proceeded once
             vr reached 1. *)
          checki "version" 2 res.Result.version
      | None -> Alcotest.fail "nc root never proceeded")
  | None -> Alcotest.fail "nc root never submitted"

(* ------------------------------------- §4.4 properties under churn *)

let run_churn ~seed ~nodes ~abort_p ~nc =
  let sim = Sim.create ~seed () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Latency.Exponential 0.008;
      policy = Policy.Periodic 0.15;
      nc_mode = nc;
      abort_probability = abort_p;
      deadlock_timeout = 0.05;
      debug_checks = true (* the quiescence oracle is armed *);
    }
  in
  let eng = Engine.create sim cfg () in
  let rng = Random.State.make [| seed; 17 |] in
  let results = ref [] in
  let submit i =
    let n1 = Random.State.int rng nodes and n2 = Random.State.int rng nodes in
    let key n = Key.intern (Printf.sprintf "k%d@%d" (Random.State.int rng 10) n) in
    let spec =
      let u = Random.State.float rng 1. in
      if u < 0.25 then
        Spec.make ~id:i
          (Spec.subtxn ~children:[ Spec.subtxn n2 [ Op.Read (key n2) ] ] n1 [ Op.Read (key n1) ])
      else if nc && u < 0.35 then
        Spec.make ~id:i
          (Spec.subtxn ~children:[ Spec.subtxn n2 [ Op.Overwrite (key n2, 1.) ] ]
             n1
             [ Op.Overwrite (key n1, 1.) ])
      else
        Spec.make ~id:i
          (Spec.subtxn ~children:[ Spec.subtxn n2 [ Op.Incr (key n2, 1.) ] ] n1
             [ Op.Incr (key n1, 1.) ])
    in
    results := (spec, Engine.submit eng spec) :: !results
  in
  Script.run sim
    (List.concat_map
       (fun i -> Script.[ Do (fun () -> submit i); Wait 0.004 ])
       (List.init 400 succ));
  ignore (Sim.run sim ~until:30.0 ());
  (eng, !results)

let churn_all_txns_resolve () =
  let _eng, results = run_churn ~seed:1 ~nodes:4 ~abort_p:0.05 ~nc:false in
  checkb "all 400 resolved" true
    (List.for_all (fun (_, iv) -> Ivar.is_full iv) results)

let churn_version_bound () =
  List.iter
    (fun seed ->
      let eng, _ = run_churn ~seed ~nodes:4 ~abort_p:0. ~nc:false in
      checkb "at most 3 versions" true (Engine.max_versions_ever eng <= 3);
      (* Paper §4: three distinct version numbers suffice (mod-3 reuse). *)
      checkb "version window ≤ 3" true
        (List.length (Engine.version_window eng) <= 3);
      checkb "many advancements happened" true
        (Engine.advancements_completed eng > 3))
    [ 2; 3; 4 ]

let churn_quiescence_oracle () =
  (* debug_checks = true: if the coordinator ever declared quiescence while
     subtransactions were live, the run raises. Completing without raising
     is the assertion. *)
  List.iter
    (fun seed ->
      let eng, results = run_churn ~seed ~nodes:5 ~abort_p:0.1 ~nc:true in
      ignore eng;
      checkb "resolved under nc+compensation churn" true
        (List.for_all (fun (_, iv) -> Ivar.is_full iv) results))
    [ 11; 12 ]

let churn_atomic_visibility () =
  List.iter
    (fun seed ->
      let _eng, results = run_churn ~seed ~nodes:4 ~abort_p:0.05 ~nc:true in
      let history =
        List.filter_map
          (fun (spec, iv) ->
            match Ivar.peek iv with Some res -> Some (spec, res) | None -> None)
          results
      in
      let report = Checker.Atomicity.check history in
      checkb
        (Printf.sprintf "seed %d clean: %s" seed
           (Format.asprintf "%a" Checker.Atomicity.pp report))
        true
        (Checker.Atomicity.clean report))
    [ 21; 22; 23 ]

(* ------------------------------------------------- ablation switches *)

let ablation_no_gc_acks_breaks_bound () =
  (* The same churn that keeps the bound at 3 with acks (churn_version_bound)
     must break it without them — the switch really is load-bearing. *)
  let sim = Sim.create ~seed:3 () in
  let cfg =
    {
      (Engine.default_config ~nodes:4) with
      Engine.latency = Latency.Exponential 0.01;
      policy = Policy.Periodic 0.02;
      poll_interval = 0.005;
      await_gc_acks = false;
      debug_checks = false (* the invariant checks would rightly fire *);
    }
  in
  let eng = Engine.create sim cfg () in
  let rng = Random.State.make [| 31 |] in
  let submit i =
    let n1 = Random.State.int rng 4 and n2 = Random.State.int rng 4 in
    let key n = Key.intern (Printf.sprintf "k%d@%d" (Random.State.int rng 8) n) in
    ignore
      (Engine.submit eng
         (Spec.make ~id:i
            (Spec.subtxn ~children:[ Spec.subtxn n2 [ Op.Incr (key n2, 1.) ] ]
               n1
               [ Op.Incr (key n1, 1.) ])))
  in
  Script.run sim
    (List.concat_map
       (fun i -> Script.[ Do (fun () -> submit i); Wait 0.002 ])
       (List.init 600 succ));
  ignore (Sim.run sim ~until:10.0 ());
  checkb "bound exceeded without acks" true (Engine.max_versions_ever eng > 3)

(* The debug check itself must fire. Ablation A2's fire-and-forget run
   (hospital at 1,500 txn/s, 10 ms exponential links, 20 ms periodic
   advancement, 5 ms polls, no GC acks) with [debug_checks] on opens a
   fourth version in shard 0; the census-backed check must stop the run
   on the node and with the message the full member rescan did. The
   replicated variant takes the live-only path. *)
let three_version_check_fires () =
  let expect ~nodes ~replicas ~node =
    let gen =
      Workload.Hospital.generator
        {
          (Workload.Hospital.default ~nodes) with
          Workload.Hospital.arrival_rate = 1500.;
        }
    in
    let cfg =
      {
        (Harness.Scenario.v3 ~latency:(Latency.Exponential 0.01) ~nodes
           (Policy.Periodic 0.02))
        with
        Engine.replicas;
        poll_interval = 0.005;
        await_gc_acks = false;
        debug_checks = true;
      }
    in
    let setup =
      { Harness.Runner.default_setup with seed = 121; duration = 1.5; settle = 3.0 }
    in
    match Harness.Scenario.drive (V3 cfg) gen setup with
    | _ -> Alcotest.failf "replicas = %d: the run did not fail" replicas
    | exception Sim.Process_failure (name, Failure msg) ->
        Alcotest.(check string)
          (Printf.sprintf "replicas = %d: failing node" replicas)
          node name;
        Alcotest.(check string)
          (Printf.sprintf "replicas = %d: message" replicas)
          "3V invariant violation: 4 distinct versions live (0,1,2,3) in \
           shard 0; version numbers could not be re-used mod 3"
          msg
  in
  expect ~nodes:5 ~replicas:1 ~node:"node-n1";
  expect ~nodes:6 ~replicas:3 ~node:"node-n3"

let ablation_single_poll_still_detects_activity () =
  (* Even in single-poll mode the coordinator must not declare while a
     straggler is visibly outstanding: quiescence requires R = C, and a
     slow child leaves R > C until it lands. *)
  let sim = Sim.create () in
  let link ~src ~dst =
    if src = 0 && dst = 1 then Some (Latency.Constant 3.0)
    else Some (Latency.Constant 0.01)
  in
  let cfg =
    {
      (Engine.default_config ~nodes:2) with
      Engine.think_time = 0.001;
      two_wave_quiescence = false;
    }
  in
  let eng = Engine.create sim cfg ~link_latency:link () in
  let adv = ref None in
  Script.(
    run sim
      [
        Do
          (fun () ->
            ignore
              (Engine.submit eng
                 (Spec.make ~id:1
                    (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Incr (Key.intern "y", 1.) ] ] 0
                       [ Op.Incr (Key.intern "x", 1.) ]))));
        Wait 0.05;
        Do (fun () -> adv := Some (Engine.advance eng));
      ]);
  let advanced () = match !adv with Some iv -> Ivar.is_full iv | None -> false in
  (* The child only lands after t = 3; phase 2 cannot have finished before. *)
  ignore (Sim.run sim ~until:3.0 ());
  checkb "advancement waits for the straggler" false (advanced ());
  ignore (Sim.run sim ~until:30.0 ());
  checkb "advancement done once it lands" true (advanced ())

let pause_isolates_outage () =
  let sim, eng = make_engine ~nodes:3 () in
  (* Freeze node 2 from t=0 for 2 seconds; also start an advancement that
     will stall on its acks. *)
  Engine.inject_pause eng ~node:2 ~at:0.0 ~duration:2.0;
  let adv = Engine.advance eng in
  (* A local transaction at node 0 and a cross-node one between 0 and 1
     must be completely unaffected. *)
  let fast =
    Engine.submit eng
      (Spec.make ~id:1
         (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Incr (Key.intern "w", 1.) ] ] 0
            [ Op.Incr (Key.intern "v", 1.) ]))
  in
  (* One transaction that does touch the frozen node. *)
  let slow =
    Engine.submit eng
      (Spec.make ~id:2
         (Spec.subtxn ~children:[ Spec.subtxn 2 [ Op.Incr (Key.intern "z", 1.) ] ] 0
            [ Op.Incr (Key.intern "y", 1.) ]))
  in
  ignore (Sim.run sim ~until:1.0 ());
  (match Ivar.peek fast with
  | Some res ->
      checkb "bystander settled quickly despite frozen peer" true
        (Result.latency res < 0.1)
  | None -> Alcotest.fail "bystander unresolved");
  checkb "outage-touching txn still pending" true (Ivar.peek slow = None);
  checkb "advancement stalled behind frozen node" false (Ivar.is_full adv);
  (* After the pause everything drains, including the advancement. *)
  ignore (Sim.run sim ~until:10.0 ());
  checkb "slow txn settled after resume" true (Ivar.is_full slow);
  checkb "advancement completed after resume" true (Ivar.is_full adv)

let submit_validates_nodes () =
  let _sim, eng = make_engine ~nodes:2 () in
  let bad =
    Spec.make ~id:1 ~label:"bad"
      (Spec.subtxn ~children:[ Spec.subtxn 7 [ Op.Incr (Key.intern "x", 1.) ] ] 0
         [ Op.Incr (Key.intern "w", 1.) ])
  in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Engine.submit: bad targets node 7 outside 0..1")
    (fun () -> ignore (Engine.submit eng bad))

let reads_take_no_locks_even_in_nc_mode () =
  (* §8: reads "do not need to obtain any locks". An NC transaction holding
     a non-commute lock across a slow 2PC must not delay a read of the same
     key — the read uses the frozen older version. *)
  let sim = Sim.create () in
  let link ~src ~dst =
    (* Make node 1 slow to respond, stretching the NC transaction's 2PC. *)
    if src = 0 && dst = 1 then Some (Latency.Constant 1.0)
    else Some (Latency.Constant 0.01)
  in
  let cfg =
    {
      (Engine.default_config ~nodes:2) with
      Engine.nc_mode = true;
      think_time = 0.001;
      deadlock_timeout = 10.0;
    }
  in
  let eng = Engine.create sim cfg ~link_latency:link () in
  (* Seed the key so the read has something to see. *)
  Mvstore.write_exact (Engine.store eng ~node:0) ~key:(Key.intern "k") ~version:0
    ~init:Value.empty ~f:Fun.id;
  let nc =
    Engine.submit eng
      (Spec.make ~id:1
         (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Overwrite (Key.intern "m", 1.) ] ] 0
            [ Op.Overwrite (Key.intern "k", 9.) ]))
  in
  let read = ref None in
  Sim.schedule sim ~delay:0.1 (fun () ->
      read :=
        Some (Engine.submit eng (Spec.make ~id:2 (Spec.subtxn 0 [ Op.Read (Key.intern "k") ]))));
  ignore (Sim.run sim ~until:0.5 ());
  (* The NC transaction is still mid-2PC (its child takes 1s)... *)
  checkb "nc still in flight" true (Ivar.peek nc = None);
  (* ...but the read finished immediately, seeing the version-0 value. *)
  (match !read with
  | Some iv -> (
      match Ivar.peek iv with
      | Some res ->
          checkb "read committed while NC lock held" true (Result.committed res);
          checkb "read latency tiny" true (Result.latency res < 0.05);
          checkf "read saw the old value" 0.
            (List.assoc (Key.intern "k") res.Result.reads).Value.amount
      | None -> Alcotest.fail "read delayed by an NC lock")
  | None -> Alcotest.fail "read not submitted");
  ignore (Sim.run sim ~until:10.0 ());
  checkb "nc eventually committed" true
    (match Ivar.peek nc with Some res -> Result.committed res | None -> false)

let nc_revisits_node () =
  (* An NC transaction whose tree visits node 0 twice: both pendings must
     resolve through the single decision, writes landing exactly once. *)
  let sim, eng = nc_engine () in
  let spec =
    Spec.make ~id:1
      (Spec.subtxn
         ~children:
           [
             Spec.subtxn
               ~children:[ Spec.subtxn 0 [ Op.Overwrite (Key.intern "back", 2.) ] ]
               1
               [ Op.Overwrite (Key.intern "mid", 3.) ];
           ]
         0
         [ Op.Overwrite (Key.intern "front", 1.) ])
  in
  let r = Engine.submit eng spec in
  ignore (Sim.run sim ~until:5.0 ());
  (match Ivar.peek r with
  | Some res -> checkb "committed" true (Result.committed res)
  | None -> Alcotest.fail "unresolved");
  let amount key =
    match Mvstore.read_visible (Engine.store eng ~node:0) ~key:(Key.intern key) ~version:10 with
    | Some (_, v) -> v.Value.amount
    | None -> nan
  in
  checkf "front" 1. (amount "front");
  checkf "back (revisit)" 2. (amount "back");
  (* Advancement still terminates (both pendings' C counters bumped). *)
  let adv = Engine.advance eng in
  ignore (Sim.run sim ~until:10.0 ());
  checkb "advancement ok" true (Ivar.is_full adv)

let stats_exposed () =
  let sim, eng = make_engine () in
  ignore (Engine.submit eng (Spec.make ~id:1 (Spec.subtxn 0 [ Op.Incr (Key.intern "k", 1.) ])));
  ignore (Sim.run sim ~until:1.0 ());
  let stats = Engine.stats eng in
  checki "submitted" 1 (Stats.Counter_set.get stats "txn.submitted");
  checki "committed" 1 (Stats.Counter_set.get stats "txn.committed");
  checkb "messages counted" true (Stats.Counter_set.get stats "net.messages" > 0);
  Alcotest.(check string) "name" "3v" (Engine.name eng)

(* ------------------------------------------------------ pending ring *)

(* The pendings ring against a [Hashtbl] model. Ids are added in order and
   removed in any order; a share of them ([long_pct] percent) stay open
   for 1,000 to 3,000 further steps, so the live window spans thousands of
   ids while most entries come and go. Every lookup, of live, removed and
   never-added ids alike, agrees with the model; the ring's window is the
   model's (the newest id less the largest id at or below which every id
   is gone); and the ring's capacity stays within twice the widest window
   so far: memory follows the window, not the run's length. *)
let id_ring_matches_model =
  QCheck.Test.make ~name:"pending ring == Hashtbl model" ~count:200
    QCheck.(triple small_nat (int_range 1 6000) (int_range 0 10))
    (fun (seed, steps, long_pct) ->
      let st = Random.State.make [| seed |] in
      let ring = Id_ring.create ~vacant:(-1) and model = Hashtbl.create 64 in
      let short = Array.make (steps + 1) 0 and n_short = ref 0 in
      let long = ref [] and newest = ref 0 and floor = ref 0 and widest = ref 0 in
      let remove id =
        Id_ring.remove ring id;
        Hashtbl.remove model id
      in
      let agrees id =
        let want = Option.value (Hashtbl.find_opt model id) ~default:(-1) in
        let got = Id_ring.find ring id in
        if got <> want then QCheck.Test.fail_reportf "id %d: ring %d, model %d" id got want
      in
      for step = 1 to steps do
        (match Random.State.int st 10 with
        | 0 | 1 | 2 | 3 ->
            incr newest;
            Id_ring.add ring !newest (7 * !newest);
            Hashtbl.replace model !newest (7 * !newest);
            if Random.State.int st 100 < long_pct then
              long := (step + 1000 + Random.State.int st 2000, !newest) :: !long
            else begin
              short.(!n_short) <- !newest;
              incr n_short
            end
        | 4 | 5 | 6 when !n_short > 0 ->
            let i = Random.State.int st !n_short in
            let id = short.(i) in
            decr n_short;
            short.(i) <- short.(!n_short);
            remove id;
            agrees id
        | _ -> agrees (Random.State.int st (!newest + 3)));
        let due, open_ = List.partition (fun (at, _) -> at <= step) !long in
        long := open_;
        List.iter (fun (_, id) -> remove id; agrees id) due;
        while !floor < !newest && not (Hashtbl.mem model (!floor + 1)) do
          incr floor
        done;
        if Id_ring.window ring <> !newest - !floor then
          QCheck.Test.fail_reportf "step %d: window %d, model %d" step (Id_ring.window ring)
            (!newest - !floor);
        widest := max !widest (!newest - !floor);
        if Id_ring.capacity ring > max 16 (2 * !widest) then
          QCheck.Test.fail_reportf "step %d: capacity %d over a widest window of %d" step
            (Id_ring.capacity ring) !widest
      done;
      for i = 0 to !n_short - 1 do
        remove short.(i)
      done;
      List.iter (fun (_, id) -> remove id) !long;
      for id = 0 to !newest + 1 do
        agrees id
      done;
      Id_ring.window ring = 0)

let () =
  Alcotest.run "threev"
    [
      ( "counters",
        [
          Alcotest.test_case "basic" `Quick counters_basic;
          Alcotest.test_case "gc" `Quick counters_gc;
        ] );
      ("pending-ring", [ QCheck_alcotest.to_alcotest id_ring_matches_model ]);
      ( "version-codec",
        Alcotest.test_case "basics" `Quick codec_basics
        :: List.map QCheck_alcotest.to_alcotest [ codec_roundtrip_property ] );
      ( "trace",
        [
          Alcotest.test_case "basics" `Quick trace_basics;
          Alcotest.test_case "ring bounds retention" `Quick trace_ring_bounds;
          Alcotest.test_case "length invariant" `Quick trace_length_invariant;
          Alcotest.test_case "bad capacity rejected" `Quick trace_bad_capacity;
          Alcotest.test_case "ring bounded over a run" `Quick
            trace_ring_over_a_run;
        ] );
      ( "execution",
        [
          Alcotest.test_case "reads use old version" `Quick
            reads_use_old_version;
          Alcotest.test_case "advancement publishes" `Quick
            advancement_publishes;
          Alcotest.test_case "updates don't block on children" `Quick
            update_does_not_block_on_children;
          Alcotest.test_case "empty-root front-end" `Quick empty_root_front_end;
          Alcotest.test_case "revisiting node" `Quick revisiting_node;
        ] );
      ( "advancement",
        [
          Alcotest.test_case "versions advance globally" `Quick
            versions_advance_globally;
          Alcotest.test_case "idle engine runs no event" `Quick
            idle_engine_runs_no_event;
          Alcotest.test_case "multiple advancements" `Quick
            multiple_advancements;
          Alcotest.test_case "implicit notification" `Quick
            implicit_notification;
          Alcotest.test_case "dual write on straggler" `Quick
            dual_write_on_straggler;
          Alcotest.test_case "compensation nets to zero" `Quick
            compensation_nets_to_zero;
        ] );
      ( "policies",
        [
          Alcotest.test_case "periodic" `Quick periodic_policy_runs;
          Alcotest.test_case "count-based" `Quick count_policy_runs;
          Alcotest.test_case "divergence-based" `Quick divergence_policy_runs;
          Alcotest.test_case "reads don't count" `Quick
            reads_do_not_trigger_count_policy;
        ] );
      ( "nc3v",
        [
          Alcotest.test_case "commit applies writes" `Quick
            nc_commit_applies_writes;
          Alcotest.test_case "abort discards writes" `Quick
            nc_abort_discards_writes;
          Alcotest.test_case "version overtake abort" `Quick
            nc_version_overtake_abort;
          Alcotest.test_case "waits during advancement" `Quick
            nc_waits_for_advancement;
          Alcotest.test_case "revisits node" `Quick nc_revisits_node;
          Alcotest.test_case "reads take no locks" `Quick
            reads_take_no_locks_even_in_nc_mode;
        ] );
      ( "churn",
        [
          Alcotest.test_case "all txns resolve" `Slow churn_all_txns_resolve;
          Alcotest.test_case "version bound holds" `Slow churn_version_bound;
          Alcotest.test_case "quiescence oracle" `Slow churn_quiescence_oracle;
          Alcotest.test_case "atomic visibility" `Slow churn_atomic_visibility;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "no GC acks breaks bound" `Slow
            ablation_no_gc_acks_breaks_bound;
          Alcotest.test_case "≤3-version check fires" `Quick
            three_version_check_fires;
          Alcotest.test_case "single poll still waits for stragglers" `Quick
            ablation_single_poll_still_detects_activity;
        ] );
      ( "fault-injection",
        [ Alcotest.test_case "pause isolates outage" `Quick pause_isolates_outage ] );
      ( "api",
        [
          Alcotest.test_case "stats exposed" `Quick stats_exposed;
          Alcotest.test_case "submit validates nodes" `Quick
            submit_validates_nodes;
        ] );
    ]
