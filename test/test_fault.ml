(* Tests for the fault-injection subsystem (lib/fault) and the protocol
   hardening it exercises: the network delivery filter, plan validation,
   scripted and probabilistic faults, seed-replayable determinism,
   crash-restart recovery (node and coordinator), whole runs under loss
   and a coordinator crash that must certify clean, the duplicate
   filter's bound under loss, a bounded-exhaustive check that dropping
   any single coordinator-bound message never breaks
   the protocol, and a bounded-exhaustive sweep that fail-stops the
   coordinator inside each of the four advancement phases. *)

module Sim = Simul.Sim
module Ivar = Simul.Ivar
module Network = Netsim.Network
module Latency = Netsim.Latency
module Plan = Fault.Plan
module Injector = Fault.Injector
module Engine = Threev.Engine
module Policy = Threev.Policy
module Spec = Txn.Spec
module Op = Txn.Op
module Result = Txn.Result
module Counter_set = Stats.Counter_set
module Explorer = Mcheck.Explorer

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------ network filter *)

let filter_drops_message () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.01) () in
  Network.set_filter net (fun ~src:_ ~dst:_ ~delay:_ -> []);
  let got = ref false in
  Sim.spawn sim ~daemon:true (fun () ->
      ignore (Network.recv net ~node:1);
      got := true);
  Network.send net ~src:0 ~dst:1 ();
  ignore (Sim.run sim ());
  checkb "never delivered" false !got;
  checki "dropped" 1 (Network.messages_dropped net);
  checki "delivered" 0 (Network.messages_delivered net)

let filter_duplicates_message () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.01) () in
  Network.set_filter net (fun ~src:_ ~dst:_ ~delay -> [ delay; delay +. 0.02 ]);
  let copies = ref 0 in
  Sim.spawn sim ~daemon:true (fun () ->
      let rec loop () =
        ignore (Network.recv net ~node:1);
        incr copies;
        loop ()
      in
      loop ());
  Network.send net ~src:0 ~dst:1 "m";
  ignore (Sim.run sim ());
  checki "two copies arrive" 2 !copies;
  checki "one extra copy" 1 (Network.extra_copies net);
  checki "delivered counts copies" 2 (Network.messages_delivered net)

(* The network.mli contract: self-sends have zero base delay but still pass
   through the filter and the delivery accounting. *)
let self_send_passes_filter () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 5.0) () in
  let seen_delay = ref (-1.) in
  Network.set_filter net (fun ~src:_ ~dst:_ ~delay ->
      seen_delay := delay;
      []);
  let got = ref false in
  Sim.spawn sim ~daemon:true (fun () ->
      ignore (Network.recv net ~node:0);
      got := true);
  Network.send net ~src:0 ~dst:0 ();
  ignore (Sim.run sim ());
  checkb "filter saw the self-send" true (!seen_delay = 0.);
  checkb "filter can drop it" false !got;
  checki "accounted as dropped" 1 (Network.messages_dropped net)

(* ------------------------------------------------ plan validation *)

let plan_validation () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  checkb "prob > 1 rejected" true
    (raises (fun () -> Plan.make ~rules:[ Plan.rule ~prob:1.5 Plan.Drop ] ()));
  checkb "empty window rejected" true
    (raises (fun () ->
         Plan.make ~rules:[ Plan.rule ~from_:2.0 ~until_:1.0 Plan.Drop ] ()));
  checkb "nth = 0 rejected" true
    (raises (fun () -> Plan.make ~rules:[ Plan.rule ~nth:0 Plan.Drop ] ()));
  checkb "restart before crash rejected" true
    (raises (fun () ->
         Plan.make ~crashes:[ Plan.crash ~node:0 ~at:2.0 ~restart:1.0 ] ()));
  checkb "coord restart before crash rejected" true
    (raises (fun () ->
         Plan.make ~coord_crashes:[ Plan.coord_crash ~at:2.0 ~restart:1.0 ] ()));
  checkb "well-formed plan accepted" true
    (not
       (raises (fun () ->
            Plan.make ~seed:3
              ~rules:(Plan.uniform_loss ~dup:0.1 ~drop:0.05 ())
              ~pauses:[ Plan.pause ~node:0 ~at:1.0 ~duration:0.5 ]
              ~crashes:[ Plan.crash ~node:1 ~at:1.0 ~restart:2.0 ]
              ~coord_crashes:[ Plan.coord_crash ~at:1.0 ~restart:2.0 ] ())));
  checkb "none is none" true (Plan.is_none Plan.none);
  checkb "a coord crash makes a plan non-empty" true
    (not
       (Plan.is_none
          (Plan.make ~coord_crashes:[ Plan.coord_crash ~at:1.0 ~restart:2.0 ] ())))

(* ------------------------------------------------ scripted faults *)

let scripted_nth_drop () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.01) () in
  let plan =
    Plan.make ~rules:[ Plan.rule ~src:0 ~dst:1 ~nth:2 Plan.Drop ] ()
  in
  let inj = Injector.create sim plan in
  Injector.install inj net;
  let log = ref [] in
  Sim.spawn sim ~daemon:true (fun () ->
      let rec loop () =
        log := Network.recv net ~node:1 :: !log;
        loop ()
      in
      loop ());
  List.iter (fun i -> Network.send net ~src:0 ~dst:1 i) [ 1; 2; 3 ];
  ignore (Sim.run sim ());
  Alcotest.(check (list int))
    "exactly the 2nd delivery dropped" [ 1; 3 ] (List.rev !log);
  checki "counted" 1 (Counter_set.get (Injector.stats inj) "fault.drops")

let partition_heals () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.001) () in
  let plan =
    Plan.make
      ~rules:[ Plan.partition ~src:0 ~dst:1 ~from_:0.1 ~until_:0.2 ]
      ()
  in
  Injector.install (Injector.create sim plan) net;
  let log = ref [] in
  Sim.spawn sim ~daemon:true (fun () ->
      let rec loop () =
        log := Network.recv net ~node:1 :: !log;
        loop ()
      in
      loop ());
  Sim.spawn sim (fun () ->
      Network.send net ~src:0 ~dst:1 1;
      Sim.sleep sim 0.15;
      Network.send net ~src:0 ~dst:1 2;
      (* inside the window: lost *)
      Sim.sleep sim 0.15;
      Network.send net ~src:0 ~dst:1 3);
  ignore (Sim.run sim ());
  Alcotest.(check (list int))
    "window message lost, link heals" [ 1; 3 ] (List.rev !log)

(* ------------------------------------------------ determinism *)

let history_digest (outcome : Harness.Runner.outcome) =
  List.fold_left
    (fun acc ((spec : Spec.t), (res : Result.t)) ->
      acc
      lxor Hashtbl.hash
             ( spec.Spec.id,
               Result.committed res,
               res.Result.submit_time,
               Result.latency res ))
    0 outcome.Harness.Runner.history

let run_small ?plan ~reliable () =
  let nodes = 2 in
  let sim = Sim.create ~seed:5 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Latency.Exponential 0.004;
      think_time = 0.0003;
      policy = Policy.Periodic 0.1;
      reliable_channel = reliable;
      retransmit_timeout = 0.01;
    }
  in
  let faults = Option.map (Injector.create sim) plan in
  let engine = Engine.create sim cfg ?faults () in
  let gen =
    Workload.Synthetic.generator
      {
        (Workload.Synthetic.default ~nodes) with
        Workload.Synthetic.arrival_rate = 300.;
        fanout = 2;
      }
  in
  let outcome =
    Harness.Runner.drive sim (Engine.packed engine)
      gen
      {
        Harness.Runner.default_setup with
        Harness.Runner.seed = 5;
        duration = 0.3;
        settle = 3.0;
      }
  in
  (outcome, engine)

(* Same (simulation seed, plan) pair => byte-identical execution. *)
let same_seed_same_trace () =
  let plan =
    Plan.make ~seed:99 ~rules:(Plan.uniform_loss ~dup:0.02 ~drop:0.1 ()) ()
  in
  let o1, _ = run_small ~plan ~reliable:true () in
  let o2, _ = run_small ~plan ~reliable:true () in
  let d1 = Counter_set.get o1.Harness.Runner.stats "fault.drops" in
  checkb "faults actually fired" true (d1 > 0);
  checki "same drops" d1 (Counter_set.get o2.Harness.Runner.stats "fault.drops");
  checki "identical histories" (history_digest o1) (history_digest o2);
  checki "same unfinished" o1.Harness.Runner.unfinished
    o2.Harness.Runner.unfinished

(* Installing the empty plan is behaviorally identical to no injector at
   all: zero fault-RNG draws, so even the latency stream is untouched. *)
let empty_plan_is_noop () =
  let o1, _ = run_small ~reliable:false () in
  let o2, _ = run_small ~plan:Plan.none ~reliable:false () in
  checki "identical histories" (history_digest o1) (history_digest o2);
  checki "same committed" o1.Harness.Runner.committed
    o2.Harness.Runner.committed

(* ------------------------------------------------ crash-restart *)

let crash_restart_recovers () =
  let nodes = 2 in
  let sim = Sim.create ~seed:21 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Latency.Constant 0.005;
      think_time = 0.001;
      reliable_channel = true;
      retransmit_timeout = 0.01;
    }
  in
  let engine = Engine.create sim cfg () in
  Engine.inject_crash engine ~node:1 ~at:0.05 ~restart:0.3;
  let results = ref [] in
  let adv = ref None in
  Sim.spawn sim ~name:"script" (fun () ->
      let submit id spec = results := (id, Engine.submit engine spec) :: !results in
      submit 1
        (Spec.make ~id:1
           (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Incr ("b", 1.) ] ] 0
              [ Op.Incr ("a", 1.) ]));
      Sim.sleep sim 0.04;
      (* triggered just before the crash: node 1 is down for most of it *)
      adv := Some (Engine.advance engine);
      Sim.sleep sim 0.5;
      submit 2
        (Spec.make ~id:2
           (Spec.subtxn ~children:[ Spec.subtxn 0 [ Op.Incr ("a", 2.) ] ] 1
              [ Op.Incr ("b", 2.) ])));
  ignore (Sim.run sim ~until:20.0 ());
  (match !adv with
  | Some iv when Ivar.is_full iv -> ()
  | _ -> Alcotest.fail "advancement did not survive the crash");
  List.iter
    (fun (id, iv) ->
      match Ivar.peek iv with
      | Some res -> checkb (Printf.sprintf "txn %d committed" id) true (Result.committed res)
      | None -> Alcotest.failf "txn %d unresolved" id)
    !results;
  checki "restarted node caught up (vu)"
    (Engine.update_version engine ~node:0)
    (Engine.update_version engine ~node:1);
  checki "restarted node caught up (vr)"
    (Engine.read_version engine ~node:0)
    (Engine.read_version engine ~node:1);
  checkb "crash was accounted" true
    (Counter_set.get (Injector.stats (Engine.injector engine)) "fault.restarts"
    = 1)

(* ------------------------------------------- gate runs under faults

   Small whole runs under message loss and coordinator crashes: the
   protocol must keep advancing, keep at most three versions, settle
   every transaction and certify clean. *)

let two_node_gen =
  Workload.Synthetic.generator
    {
      (Workload.Synthetic.default ~nodes:2) with
      Workload.Synthetic.arrival_rate = 300.;
      read_ratio = 0.25;
      fanout = 2;
      keys_per_node = 10;
    }

let two_node_cfg =
  {
    (Engine.default_config ~nodes:2) with
    Engine.latency = Latency.Exponential 0.003;
    think_time = 0.0005;
    deadlock_timeout = 0.05;
    policy = Policy.Periodic 0.1;
    reliable_channel = true;
    retransmit_timeout = 0.01;
  }

(* 5% loss plus 2% duplication on the reliable channel. *)
let advancement_under_loss () =
  let sim = Sim.create ~seed:7 () in
  let faults =
    Injector.create sim
      (Plan.make ~seed:7 ~rules:(Plan.uniform_loss ~dup:0.02 ~drop:0.05 ()) ())
  in
  let engine = Engine.create sim two_node_cfg ~faults () in
  let outcome =
    Harness.Runner.drive sim (Engine.packed engine) two_node_gen
      {
        Harness.Runner.default_setup with
        Harness.Runner.seed = 7;
        duration = 0.4;
        settle = 4.0;
      }
  in
  checkb "advancement completes under 5% loss" true
    (Engine.advancements_completed engine >= 1);
  checkb "at most three versions" true (Engine.max_versions_ever engine <= 3);
  Certified.check ~engine "5% loss" outcome

(* Ack-floor pruning keeps the network's duplicate filter at the
   in-flight window on a retransmit-heavy run: entries survive only while
   a message's ack is outstanding, so a tenth of all traffic ever sent is
   far above any honest window and far below the unpruned count. *)
let delivered_seen_bounded_under_loss () =
  let sim = Sim.create ~seed:11 () in
  let faults =
    Injector.create sim
      (Plan.make ~seed:11 ~rules:(Plan.uniform_loss ~drop:0.15 ()) ())
  in
  let cfg =
    {
      (Engine.default_config ~nodes:6) with
      Engine.latency = Latency.Exponential 0.002;
      think_time = 0.0001;
      policy = Policy.Periodic 0.25;
      reliable_channel = true;
      retransmit_timeout = 0.02;
    }
  in
  let engine = Engine.create sim cfg ~faults () in
  let gen =
    Workload.Synthetic.generator
      {
        (Workload.Synthetic.default ~nodes:6) with
        Workload.Synthetic.arrival_rate = 600.;
        fanout = 2;
      }
  in
  let outcome =
    Harness.Runner.drive sim (Engine.packed engine) gen
      {
        Harness.Runner.seed = 11;
        duration = 0.5;
        settle = 2.0;
        max_txns = 5_000;
      }
  in
  checkb "the lossy run retransmitted" true
    (Counter_set.get outcome.Harness.Runner.stats "net.retransmissions" > 0);
  let bound = max 64 (Engine.messages_sent engine / 10) in
  let seen = Engine.delivered_seen_size engine in
  checkb (Printf.sprintf "delivered_seen %d <= %d" seen bound) true
    (seen <= bound)

(* A coordinator crash inside phase 2's poll loop (constant latency pins
   the schedule: phase 1 needs two 3 ms hops, so 0.215 s lands in phase
   2; restart at 0.3 s): the advancement must complete from the WAL. *)
let coord_crash_mid_advancement () =
  let sim = Sim.create ~seed:13 () in
  let cfg =
    {
      (Engine.default_config ~nodes:2) with
      Engine.latency = Latency.Constant 0.003;
      think_time = 0.0002;
      policy = Policy.Manual;
      reliable_channel = true;
      retransmit_timeout = 0.01;
    }
  in
  let faults =
    Injector.create sim
      (Plan.make ~seed:13
         ~coord_crashes:[ Plan.coord_crash ~at:0.215 ~restart:0.3 ]
         ())
  in
  let engine = Engine.create sim cfg ~faults () in
  let adv = ref None in
  Sim.schedule sim ~delay:0.2 (fun () -> adv := Some (Engine.advance engine));
  let outcome =
    Harness.Runner.drive sim (Engine.packed engine) two_node_gen
      {
        Harness.Runner.default_setup with
        Harness.Runner.seed = 13;
        duration = 0.4;
        settle = 4.0;
      }
  in
  checkb "advancement completes across a coordinator crash" true
    ((match !adv with Some iv -> Ivar.is_full iv | None -> false)
    && Engine.advancements_completed engine >= 1);
  checkb "coordinator recovered from its WAL" true
    (Counter_set.get outcome.Harness.Runner.stats "proto.coord_recoveries"
    >= 1);
  checkb "at most three versions" true (Engine.max_versions_ever engine <= 3);
  Certified.check ~engine "coordinator crash" outcome

(* A node that crashes before the first advancement even triggers must
   recover to the true initial versions (vu = 1, vr = 0), not to zero —
   the restart-recovery seed is the protocol's initial state, never an
   empty fold. *)
let restart_before_any_advancement () =
  let nodes = 2 in
  let sim = Sim.create ~seed:7 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Latency.Constant 0.005;
      think_time = 0.001;
      reliable_channel = true;
      retransmit_timeout = 0.01;
    }
  in
  let engine = Engine.create sim cfg () in
  Engine.inject_crash engine ~node:1 ~at:0.01 ~restart:0.1;
  let r = ref None in
  Sim.spawn sim ~name:"script" (fun () ->
      Sim.sleep sim 0.2;
      r :=
        Some
          (Engine.submit engine
             (Spec.make ~id:1
                (Spec.subtxn
                   ~children:[ Spec.subtxn 1 [ Op.Incr ("b", 1.) ] ]
                   0
                   [ Op.Incr ("a", 1.) ]))));
  ignore (Sim.run sim ~until:10.0 ());
  checki "recovered update version is the true initial" 1
    (Engine.update_version engine ~node:1);
  checki "recovered read version is the true initial" 0
    (Engine.read_version engine ~node:1);
  match !r with
  | Some iv -> (
      match Ivar.peek iv with
      | Some res ->
          checkb "txn committed on the recovered node" true
            (Result.committed res)
      | None -> Alcotest.fail "txn unresolved")
  | None -> Alcotest.fail "txn never submitted"

(* ------------------------------------------------ qcheck: random loss *)

(* Under any loss rate up to 10% (plus duplication), with the reliable
   channel on: advancement keeps completing, the history stays atomically
   visible, the 3-version bound holds, and nothing is left unfinished. *)
let qcheck_loss =
  QCheck.Test.make ~name:"advancement terminates under random <=10% loss"
    ~count:30
    QCheck.(pair (int_range 1 10_000) (int_range 0 10))
    (fun (plan_seed, drop_pct) ->
      let plan =
        Plan.make ~seed:plan_seed
          ~rules:
            (Plan.uniform_loss ~dup:0.02 ~drop:(float_of_int drop_pct /. 100.) ())
          ()
      in
      let outcome, engine = run_small ~plan ~reliable:true () in
      let atom = Harness.Runner.atomicity outcome in
      if Engine.advancements_completed engine < 1 then
        QCheck.Test.fail_report "advancement never completed";
      if not (Checker.Atomicity.clean atom) then
        QCheck.Test.fail_report "atomic visibility violated";
      if Engine.max_versions_ever engine > 3 then
        QCheck.Test.fail_report "3-version bound broken";
      if outcome.Harness.Runner.unfinished > 0 then
        QCheck.Test.fail_report "transactions left unfinished";
      true)

(* Add a coordinator fail-stop on top of random loss: the run must still
   terminate with at least one completed advancement, a clean history, and
   the 3-version bound — and re-running the same (sim seed, plan) pair must
   replay byte-identically, crash recovery included. *)
let qcheck_coord_crash =
  QCheck.Test.make
    ~name:"coordinator crash + <=10% loss terminates, deterministically"
    ~count:15
    QCheck.(
      triple (int_range 1 10_000) (int_range 0 10) (int_range 0 20))
    (fun (plan_seed, drop_pct, at_slot) ->
      let at = 0.05 +. (0.01 *. float_of_int at_slot) in
      let plan =
        Plan.make ~seed:plan_seed
          ~rules:
            (Plan.uniform_loss ~dup:0.02 ~drop:(float_of_int drop_pct /. 100.) ())
          ~coord_crashes:[ Plan.coord_crash ~at ~restart:(at +. 0.15) ]
          ()
      in
      let o1, engine = run_small ~plan ~reliable:true () in
      if Engine.advancements_completed engine < 1 then
        QCheck.Test.fail_report "advancement never completed";
      if not (Checker.Atomicity.clean (Harness.Runner.atomicity o1)) then
        QCheck.Test.fail_report "atomic visibility violated";
      if Engine.max_versions_ever engine > 3 then
        QCheck.Test.fail_report "3-version bound broken";
      if o1.Harness.Runner.unfinished > 0 then
        QCheck.Test.fail_report "transactions left unfinished";
      let o2, _ = run_small ~plan ~reliable:true () in
      if history_digest o1 <> history_digest o2 then
        QCheck.Test.fail_report "replay diverged across coordinator recovery";
      true)

(* ------------------------------------- mcheck: drop any one message *)

(* Bounded-exhaustive scenario: a Table-1-shaped run where exactly one
   scripted rule drops the k-th node->coordinator message (acks, adv-acks,
   poll replies — whatever the k-th happens to be) for every node and every
   k up to a budget. On each schedule the protocol must still terminate
   (retransmission repairs the loss), commit everything, stay atomic, and
   never fire the quiescence oracle early (debug_checks raises inside the
   engine if phase 2/4 ever declares quiescence unsoundly). *)
let drop_one_scenario ctl =
  let nodes = 2 in
  let src = Explorer.choose ctl nodes in
  let nth = 1 + Explorer.choose ctl 6 in
  let plan =
    Plan.make
      ~rules:[ Plan.rule ~src ~dst:nodes (* coordinator *) ~nth Plan.Drop ]
      ()
  in
  let sim = Sim.create ~seed:1 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.think_time = 0.002;
      poll_interval = 0.02;
      debug_checks = true;
      reliable_channel = true;
      retransmit_timeout = 0.03;
    }
  in
  let faults = Injector.create sim plan in
  let engine = Engine.create sim cfg ~faults () in
  let submitted = ref [] in
  let submit spec = submitted := (spec, Engine.submit engine spec) :: !submitted in
  let adv = ref None in
  Sim.spawn sim ~name:"script" (fun () ->
      submit
        (Spec.make ~id:1 ~label:"i"
           (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Incr ("d", 3.) ] ] 0
              [ Op.Incr ("a", 1.) ]));
      Sim.sleep sim 0.01;
      adv := Some (Engine.advance engine);
      Sim.sleep sim 0.02;
      submit
        (Spec.make ~id:2 ~label:"j"
           (Spec.subtxn ~children:[ Spec.subtxn 0 [ Op.Incr ("a", 5.) ] ] 1
              [ Op.Incr ("d", 7.) ]));
      Sim.sleep sim 0.02;
      submit
        (Spec.make ~id:3 ~label:"y"
           (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Read "d" ] ] 0
              [ Op.Read "a" ])));
  (match Sim.run sim ~until:60.0 () with
  | Sim.Completed | Sim.Hit_limit -> ()
  | Sim.Stalled names -> failwith ("stalled: " ^ String.concat "," names));
  (match !adv with
  | Some iv when Ivar.is_full iv -> ()
  | _ -> failwith "advancement did not complete");
  let history =
    List.map
      (fun ((spec : Spec.t), iv) ->
        match Ivar.peek iv with
        | Some res ->
            if not (Result.committed res) then
              failwith (spec.Spec.label ^ " did not commit");
            (spec, res)
        | None -> failwith (spec.Spec.label ^ " unresolved"))
      !submitted
  in
  if not (Checker.Atomicity.clean (Checker.Atomicity.check history)) then
    failwith "atomic visibility violated";
  if Engine.max_versions_ever engine > 3 then failwith "version bound broken"

let drop_any_one_message () =
  let outcome = Explorer.explore drop_one_scenario in
  (match outcome.Explorer.failure with
  | Some (path, exn) ->
      Alcotest.failf "dropping message %s breaks the protocol: %s"
        (String.concat "," (List.map string_of_int path))
        (Printexc.to_string exn)
  | None -> ());
  checkb "tree exhausted" true outcome.Explorer.exhausted;
  checki "2 links x 6 positions" 12 outcome.Explorer.runs

(* --------------------- mcheck: coordinator crash inside each phase *)

(* Manual-policy run with the advancement triggered at a fixed time, so the
   coordinator's WAL phase-entry timestamps pin down when each phase is in
   flight. *)
let run_coord ?(plan = Plan.none) () =
  let nodes = 2 in
  let sim = Sim.create ~seed:31 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Latency.Constant 0.004;
      think_time = 0.0003;
      policy = Policy.Manual;
      reliable_channel = true;
      retransmit_timeout = 0.01;
    }
  in
  let faults = Injector.create sim plan in
  let engine = Engine.create sim cfg ~faults () in
  let adv = ref None in
  Sim.schedule sim ~delay:0.1 (fun () -> adv := Some (Engine.advance engine));
  let gen =
    Workload.Synthetic.generator
      {
        (Workload.Synthetic.default ~nodes) with
        Workload.Synthetic.arrival_rate = 300.;
        fanout = 2;
      }
  in
  let outcome =
    Harness.Runner.drive sim (Engine.packed engine) gen
      {
        Harness.Runner.default_setup with
        Harness.Runner.seed = 31;
        duration = 0.3;
        settle = 6.0;
      }
  in
  (outcome, engine, !adv)

(* Phase-entry times of the first advancement in a fault-free reference
   run. Runs are byte-identical up to the crash instant, so a crash placed
   strictly inside [entry k, entry k+1) provably lands in phase k. *)
let coord_phase_entries =
  lazy
    (let _, engine, adv = run_coord () in
     (match adv with
     | Some iv when Ivar.is_full iv -> ()
     | _ -> failwith "reference advancement did not complete");
     let times = Threev.Coord_log.phase_times (Engine.coord_log engine) in
     Array.init 4 (fun i ->
         match
           List.find_opt
             (fun (a, p, _) -> a = 1 && Threev.Coord_log.phase_number p = i + 1)
             times
         with
         | Some (_, _, t) -> t
         | None -> failwith (Printf.sprintf "phase %d never entered" (i + 1))))

(* Bounded-exhaustive sweep: fail-stop the coordinator inside each of the
   four phases of an in-flight advancement. Phases 1-3 crash at the
   midpoint of the phase's WAL-timestamped window; phase 4 has no successor
   entry, so it crashes just after the Retire_read record. Every schedule
   must recover from the WAL, finish the advancement, keep the history
   atomic, and hold the 3-version bound. *)
let coord_crash_scenario ctl =
  let entry = Lazy.force coord_phase_entries in
  let k = Explorer.choose ctl 4 in
  let at =
    if k < 3 then (entry.(k) +. entry.(k + 1)) /. 2. else entry.(3) +. 0.002
  in
  let plan =
    Plan.make ~seed:17
      ~coord_crashes:[ Plan.coord_crash ~at ~restart:(at +. 0.2) ]
      ()
  in
  let outcome, engine, adv = run_coord ~plan () in
  (match adv with
  | Some iv when Ivar.is_full iv -> ()
  | _ -> failwith "advancement did not survive the coordinator crash");
  if Engine.advancements_completed engine < 1 then
    failwith "advancement never completed";
  if Counter_set.get outcome.Harness.Runner.stats "proto.coord_recoveries" < 1
  then failwith "coordinator never recovered from its WAL";
  if not (Checker.Atomicity.clean (Harness.Runner.atomicity outcome)) then
    failwith "atomic visibility violated";
  if Engine.max_versions_ever engine > 3 then failwith "version bound broken";
  if outcome.Harness.Runner.unfinished > 0 then
    failwith "transactions left unfinished"

let coord_crash_each_phase () =
  let outcome = Explorer.explore coord_crash_scenario in
  (match outcome.Explorer.failure with
  | Some (path, exn) ->
      Alcotest.failf "coordinator crash in phase %s breaks the protocol: %s"
        (String.concat "," (List.map (fun k -> string_of_int (k + 1)) path))
        (Printexc.to_string exn)
  | None -> ());
  checkb "tree exhausted" true outcome.Explorer.exhausted;
  checki "one run per phase" 4 outcome.Explorer.runs

(* --------------------------------------------------------------- suite *)

let () =
  Alcotest.run "fault"
    [
      ( "filter",
        [
          Alcotest.test_case "drop" `Quick filter_drops_message;
          Alcotest.test_case "duplicate" `Quick filter_duplicates_message;
          Alcotest.test_case "self-send" `Quick self_send_passes_filter;
        ] );
      ( "plan",
        [
          Alcotest.test_case "validation" `Quick plan_validation;
          Alcotest.test_case "scripted nth drop" `Quick scripted_nth_drop;
          Alcotest.test_case "partition heals" `Quick partition_heals;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same trace" `Quick same_seed_same_trace;
          Alcotest.test_case "empty plan is a no-op" `Quick empty_plan_is_noop;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash-restart" `Quick crash_restart_recovers;
          Alcotest.test_case "restart before first advancement" `Quick
            restart_before_any_advancement;
          Alcotest.test_case "coordinator crash mid-advancement" `Quick
            coord_crash_mid_advancement;
        ] );
      ( "loss",
        [
          QCheck_alcotest.to_alcotest qcheck_loss;
          QCheck_alcotest.to_alcotest qcheck_coord_crash;
          Alcotest.test_case "advancement under loss" `Quick
            advancement_under_loss;
          Alcotest.test_case "delivered_seen bounded under loss" `Quick
            delivered_seen_bounded_under_loss;
        ] );
      ( "mcheck",
        [
          Alcotest.test_case "drop any one message" `Quick drop_any_one_message;
          Alcotest.test_case "coordinator crash in each phase" `Quick
            coord_crash_each_phase;
        ] );
    ]
