(* Tests for the failure-detector subsystem (lib/fd) and its engine
   integration: the suspicion state machine's transitions, bounded
   back-off and adaptive horizon; a bounded-exhaustive sweep provoking
   false suspicion of each replica inside each advancement phase; a qcheck
   property that heartbeat loss alone never changes committed state or
   certifier verdicts vs the fault-free golden run (obligation a); the
   degradation path for an outage the detector cannot see — the watchdog
   and the reliable channel carry the advancement (obligation b); and a
   real crash compounded with a false-suspicion storm. *)

module Sim = Simul.Sim
module Ivar = Simul.Ivar
module Latency = Netsim.Latency
module Detector = Fd.Detector
module Plan = Fault.Plan
module Injector = Fault.Injector
module Engine = Threev.Engine
module Policy = Threev.Policy
module Runner = Harness.Runner
module Counter_set = Stats.Counter_set
module Explorer = Mcheck.Explorer

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ----------------------------------------------------- detector units *)

(* phi_factor 1 pins the fresh-peer horizon to [timeout] exactly, so the
   deadline arithmetic below is closed-form. *)
let unit_cfg =
  {
    Detector.period = 0.05;
    timeout = 0.15;
    phi_factor = 1.0;
    confirm_misses = 3;
    backoff = 2.0;
    max_horizon = 2.0;
  }

let detector_validation () =
  let rejected cfg =
    match Detector.create ~config:cfg ~nodes:2 ~now:0. () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  checkb "timeout <= period rejected" true
    (rejected { unit_cfg with Detector.timeout = 0.05 });
  checkb "non-positive period rejected" true
    (rejected { unit_cfg with Detector.period = 0. });
  checkb "phi_factor < 1 rejected" true
    (rejected { unit_cfg with Detector.phi_factor = 0.5 });
  checkb "confirm_misses < 1 rejected" true
    (rejected { unit_cfg with Detector.confirm_misses = 0 });
  checkb "backoff < 1 rejected" true
    (rejected { unit_cfg with Detector.backoff = 0.9 });
  checkb "max_horizon < timeout rejected" true
    (rejected { unit_cfg with Detector.max_horizon = 0.1 });
  checkb "zero nodes rejected" true
    (match Detector.create ~nodes:0 ~now:0. () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Detector state is a function of heartbeat arrivals and the current time
   alone: probes at extra instants, repeats of one instant included, change
   no later answer and no counter. The engine's quorum rule probes each
   member once per coordinator wait at every shard count on this fact.
   A step advances the clock by its gap (zero a fifth of the time), then
   beats (kind 0), checks (kind 1: both runs read [state] and [suspected])
   or probes (kinds 2-3: the probing run only, twice). *)
let qcheck_probes_change_nothing =
  let nodes = 3 in
  let step =
    QCheck.Gen.(
      triple (int_bound 3) (int_bound (nodes - 1))
        (frequency [ (1, return 0.); (4, float_bound_inclusive 0.4) ]))
  in
  let run ~probing steps =
    let d = Detector.create ~config:unit_cfg ~nodes ~now:0. () in
    let now = ref 0. and seen = ref [] in
    let check node =
      seen := (Detector.state d ~node ~now:!now, Detector.suspected d ~node ~now:!now) :: !seen
    in
    List.iter
      (fun (kind, node, gap) ->
        now := !now +. gap;
        match kind with
        | 0 -> Detector.heartbeat d ~node ~now:!now
        | 1 -> check node
        | _ ->
            if probing then begin
              ignore (Detector.suspected d ~node ~now:!now);
              ignore (Detector.state d ~node ~now:!now)
            end)
      steps;
    for node = 0 to nodes - 1 do
      check node
    done;
    (List.rev !seen, Detector.suspicions d, Detector.confirmations d, Detector.recoveries d)
  in
  QCheck.Test.make ~name:"detector: extra probes change no state or count" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 80) step))
    (fun steps -> run ~probing:true steps = run ~probing:false steps)

(* The full trusted → suspected → confirmed-down → recovered → trusted
   walk, with the deadline chain computed by hand: silence from t=0 under
   [unit_cfg] misses at 0.15 (suspected, horizon doubles to 0.3), at 0.45
   (horizon 0.6) and at 1.05 (third miss — confirmed down). *)
let detector_lifecycle () =
  let d = Detector.create ~config:unit_cfg ~nodes:2 ~now:0. () in
  (* A beating peer stays trusted. *)
  Detector.heartbeat d ~node:0 ~now:0.05;
  Detector.heartbeat d ~node:0 ~now:0.10;
  checkb "beating peer trusted" true
    (Detector.state d ~node:0 ~now:0.2 = Detector.Trusted);
  (* The silent peer walks the suspicion ladder. *)
  checkb "silent peer still trusted before the deadline" true
    (Detector.state d ~node:1 ~now:0.14 = Detector.Trusted);
  checkb "first expired deadline suspects" true
    (Detector.state d ~node:1 ~now:0.16 = Detector.Suspected);
  checkb "suspected before the second miss" true
    (Detector.state d ~node:1 ~now:0.44 = Detector.Suspected);
  checkb "third miss confirms down" true
    (Detector.state d ~node:1 ~now:1.06 = Detector.Confirmed_down);
  checkb "confirmed-down is suspected" true
    (Detector.suspected d ~node:1 ~now:1.1);
  checkb "confirmed down at the later instant" true
    (Detector.state d ~node:1 ~now:1.1 = Detector.Confirmed_down);
  (* A heartbeat refutes the suspicion: one transitional beat, then trust. *)
  Detector.heartbeat d ~node:1 ~now:1.2;
  checkb "recovered after the refuting beat" true
    (Detector.state d ~node:1 ~now:1.21 = Detector.Recovered);
  checkb "recovered is not suspected" true
    (not (Detector.suspected d ~node:1 ~now:1.21));
  Detector.heartbeat d ~node:1 ~now:1.25;
  checkb "re-trusted by the next beat" true
    (Detector.state d ~node:1 ~now:1.26 = Detector.Trusted);
  checki "one suspicion" 1 (Detector.suspicions d);
  checki "one confirmation" 1 (Detector.confirmations d);
  checki "one recovery" 1 (Detector.recoveries d);
  checki "four heartbeats folded" 4 (Detector.heartbeats_seen d)

(* Back-off is bounded: with a small [max_horizon], a very long silence
   costs misses at a bounded cadence and a single beat still recovers. *)
let detector_bounded_backoff () =
  let cfg = { unit_cfg with Detector.max_horizon = 0.2 } in
  let d = Detector.create ~config:cfg ~nodes:1 ~now:0. () in
  checkb "long silence confirms down" true
    (Detector.state d ~node:0 ~now:50. = Detector.Confirmed_down);
  Detector.heartbeat d ~node:0 ~now:50.05;
  checkb "one beat recovers even after a 50s outage" true
    (Detector.state d ~node:0 ~now:50.06 = Detector.Recovered);
  checki "exactly one suspicion for the whole outage" 1
    (Detector.suspicions d)

(* The horizon adapts to the observed cadence (phi-accrual style): a peer
   beating steadily at twice the configured period earns a proportionally
   longer deadline instead of being endlessly re-suspected. *)
let detector_adaptive_horizon () =
  let cfg = { unit_cfg with Detector.phi_factor = 4.0 } in
  let d = Detector.create ~config:cfg ~nodes:1 ~now:0. () in
  let last = ref 0. in
  for i = 1 to 50 do
    last := 0.1 *. float_of_int i;
    Detector.heartbeat d ~node:0 ~now:!last
  done;
  checki "slow-but-steady peer never suspected" 0 (Detector.suspicions d);
  (* EWMA mean ~0.1 → horizon ~0.4: silence of 0.35 is tolerated... *)
  checkb "within the adapted horizon" true
    (Detector.state d ~node:0 ~now:(!last +. 0.35) = Detector.Trusted);
  (* ...but the configured-period horizon (4 x 0.05 = 0.2) would not be. *)
  checkb "adapted horizon exceeds the configured one" true
    (Detector.state d ~node:0 ~now:(!last +. 0.45) = Detector.Suspected)

(* Suspicion is a pure function of the arrival history: two detectors fed
   the same beats and queries agree on every state and counter. *)
let detector_deterministic () =
  let feed d =
    let states = ref [] in
    for i = 1 to 40 do
      let t = 0.07 *. float_of_int i in
      if i mod 7 <> 0 then Detector.heartbeat d ~node:(i mod 3) ~now:t;
      states :=
        Detector.state d ~node:(i mod 3) ~now:(t +. 0.01) :: !states
    done;
    (!states, Detector.suspicions d, Detector.recoveries d)
  in
  let a = feed (Detector.create ~config:unit_cfg ~nodes:3 ~now:0. ()) in
  let b = feed (Detector.create ~config:unit_cfg ~nodes:3 ~now:0. ()) in
  checkb "identical states and counters" true (a = b)

(* ------------------------------------------------- engine integration *)

let fd_cfg ~nodes ~replicas ~policy =
  {
    (Engine.default_config ~nodes) with
    Engine.replicas;
    latency = Latency.Constant 0.004;
    think_time = 0.0003;
    policy;
    reliable_channel = true;
    retransmit_timeout = 0.01;
    hb_period = 0.005;
    hb_timeout = 0.015;
    phase_deadline = 0.5;
  }

let small_gen nodes =
  Workload.Synthetic.generator
    {
      (Workload.Synthetic.default ~nodes) with
      Workload.Synthetic.arrival_rate = 300.;
      read_ratio = 0.25;
      fanout = 2;
      keys_per_node = 15;
      zipf_s = 0.7;
    }

(* ------------------- mcheck: false suspicion inside each phase

   Mirror of test_repl's replica-crash sweep, with the lie instead of the
   crash: a fault-free reference run (heartbeats on) pins the WAL
   phase-entry times of the first advancement; the explorer then drops
   each replica's outgoing heartbeats starting strictly inside each of the
   four phases. The node stays alive — only the detector's evidence is
   cut — so every schedule must suspect it, finish the advancement on the
   unsuspected quorum, and certify clean (obligation a, per phase). *)

let run_fd_coord ?(plan = Plan.none) () =
  let nodes = 3 in
  let sim = Sim.create ~seed:83 () in
  let cfg = fd_cfg ~nodes ~replicas:3 ~policy:Policy.Manual in
  let faults = Injector.create sim plan in
  let engine = Engine.create sim cfg ~faults () in
  let adv = ref None in
  Sim.schedule sim ~delay:0.1 (fun () -> adv := Some (Engine.advance engine));
  let outcome =
    Runner.drive sim (Engine.packed engine) (small_gen nodes)
      {
        Runner.default_setup with
        Runner.seed = 83;
        duration = 0.3;
        settle = 6.0;
      }
  in
  (outcome, engine, !adv)

let fd_phase_entries =
  lazy
    (let _, engine, adv = run_fd_coord () in
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

let false_suspicion_scenario ctl =
  let entry = Lazy.force fd_phase_entries in
  let node = Explorer.choose ctl 3 in
  let k = Explorer.choose ctl 4 in
  let at =
    if k < 3 then (entry.(k) +. entry.(k + 1)) /. 2. else entry.(3) +. 0.002
  in
  let plan =
    Plan.make ~seed:83
      ~rules:(Plan.heartbeat_loss ~src:node ~from_:at ~until_:(at +. 0.25) ())
      ()
  in
  let outcome, engine, adv = run_fd_coord ~plan () in
  (match adv with
  | Some iv when Ivar.is_full iv -> ()
  | _ -> failwith "advancement did not survive the false suspicion");
  if Engine.advancements_completed engine < 1 then
    failwith "advancement never completed";
  if Counter_set.get outcome.Runner.stats "fd.suspicions" < 1 then
    failwith "the storm never provoked a suspicion";
  if Counter_set.get outcome.Runner.stats "fd.recoveries" < 1 then
    failwith "the live node never re-earned trust";
  if not (Checker.Atomicity.clean (Runner.atomicity outcome)) then
    failwith "atomic visibility violated";
  if outcome.Runner.unfinished > 0 then
    failwith "transactions left unfinished"

let false_suspicion_each_phase () =
  let outcome = Explorer.explore false_suspicion_scenario in
  (match outcome.Explorer.failure with
  | Some (path, exn) ->
      Alcotest.failf "false suspicion %s breaks quorum advancement: %s"
        (String.concat "," (List.map string_of_int path))
        (Printexc.to_string exn)
  | None -> ());
  checkb "tree exhausted" true outcome.Explorer.exhausted;
  checki "3 replicas x 4 phases" 12 outcome.Explorer.runs

(* ---------------- qcheck: heartbeat loss never changes the outcome

   Obligation (a) as a property: heartbeat loss alone — no real fault —
   must be invisible in the committed history. Commuting updates make the
   final state a pure function of the committed set, so it suffices that
   every transaction settles, the commit/abort split matches the
   fault-free golden run, and all four checkers (1SR, atomic visibility,
   exact version reads, final-store replay) stay clean: replay cleanliness
   on the same committed set pins the same final per-key values. *)

let qcheck_run ?(plan = Plan.none) () =
  let nodes = 4 in
  let sim = Sim.create ~seed:97 () in
  let cfg = fd_cfg ~nodes ~replicas:2 ~policy:(Policy.Periodic 0.15) in
  let faults = Injector.create sim plan in
  let engine = Engine.create sim cfg ~faults () in
  let outcome =
    Runner.drive sim (Engine.packed engine) (small_gen nodes)
      { Runner.seed = 97; duration = 0.4; settle = 6.0; max_txns = 10_000 }
  in
  (outcome, engine)

let qcheck_golden = lazy (qcheck_run ())

let clean_verdicts (outcome : Runner.outcome) engine =
  Harness.Certify.(clean (run ~engine outcome.Runner.history))

let qcheck_hb_loss =
  QCheck.Test.make
    ~name:"heartbeat loss alone never perturbs the committed outcome"
    ~count:12
    QCheck.(
      quad (int_range 0 3) (int_range 0 120) (int_range 5 60) (int_range 5 10))
    (fun (node, from_c, len_c, prob_d) ->
      let golden, _ = Lazy.force qcheck_golden in
      let from_ = 0.005 *. float_of_int from_c in
      let plan =
        Plan.make ~seed:97
          ~rules:
            (Plan.heartbeat_loss ~src:node
               ~prob:(float_of_int prob_d /. 10.)
               ~from_
               ~until_:(from_ +. (0.01 *. float_of_int len_c))
               ())
          ()
      in
      let outcome, engine = qcheck_run ~plan () in
      if outcome.Runner.unfinished > 0 then
        QCheck.Test.fail_report "transactions left unfinished";
      if outcome.Runner.committed <> golden.Runner.committed then
        QCheck.Test.fail_reportf "committed %d vs golden %d"
          outcome.Runner.committed golden.Runner.committed;
      if outcome.Runner.aborted <> golden.Runner.aborted then
        QCheck.Test.fail_reportf "aborted %d vs golden %d"
          outcome.Runner.aborted golden.Runner.aborted;
      if not (clean_verdicts outcome engine) then
        QCheck.Test.fail_report "a checker verdict changed under hb loss";
      true)

(* The golden run itself must be clean — otherwise the property above
   compares against garbage. *)
let qcheck_golden_clean () =
  let golden, engine = Lazy.force qcheck_golden in
  checki "golden settled" 0 golden.Runner.unfinished;
  checkb "golden clean" true (clean_verdicts golden engine)

(* --------------------- obligation (b): the outage the detector misses

   A detector that is effectively blind (huge suspicion horizon) faces a
   real crash of k-1 replicas mid-run. Nothing ever gets suspected, so the
   quorum keeps requiring the dead nodes and the advancement must ride the
   watchdog's bounded resends plus the reliable channel's retransmissions
   until the replicas restart — degraded, but never wedged, and never
   consulting ground truth. *)
let undetected_outage_degrades () =
  let nodes = 6 in
  let sim = Sim.create ~seed:131 () in
  let cfg =
    {
      (fd_cfg ~nodes ~replicas:3 ~policy:Policy.Manual) with
      Engine.hb_period = 0.05;
      hb_timeout = 10.0;
      phase_deadline = 0.2;
    }
  in
  let members = Repl.Placement.members (Repl.Placement.create ~nodes ~replicas:3) 0 in
  let faults =
    Injector.create sim
      (Plan.make ~seed:131
         ~crashes:(Plan.crash_replicas ~members ~keep:1 ~at:0.15 ~restart:0.8)
         ())
  in
  let engine = Engine.create sim cfg ~faults () in
  let adv = ref None in
  Sim.schedule sim ~delay:0.3 (fun () -> adv := Some (Engine.advance engine));
  let outcome =
    Runner.drive sim (Engine.packed engine) (small_gen nodes)
      { Runner.seed = 131; duration = 0.5; settle = 8.0; max_txns = 10_000 }
  in
  (match !adv with
  | Some iv when Ivar.is_full iv -> ()
  | _ -> Alcotest.fail "advancement wedged on an undetected outage");
  checkb "advancement completed" true
    (Engine.advancements_completed engine >= 1);
  checki "the blind detector never suspected anyone" 0
    (Counter_set.get outcome.Runner.stats "fd.suspicions");
  checkb "the watchdog carried the wait" true
    (Counter_set.get outcome.Runner.stats "proto.phase_stalled" >= 1);
  Certified.check ~engine "undetected outage" outcome

(* ------------------- a real crash and a false-suspicion storm at once

   k = 3 with the detector on: one replica crashed across an advancement
   window while a live node's heartbeats are dropped. The detector must
   suspect, the suspected node must re-earn trust, advancement must not
   stall, and the run must certify clean. *)
let crash_and_storm () =
  let nodes = 6 in
  let sim = Sim.create ~seed:29 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.replicas = 3;
      latency = Latency.Exponential 0.003;
      think_time = 0.0005;
      policy = Policy.Periodic 0.2;
      reliable_channel = true;
      retransmit_timeout = 0.02;
      hb_period = 0.02;
      hb_timeout = 0.08;
      phase_deadline = 0.5;
    }
  in
  let faults =
    Injector.create sim
      (Plan.make ~seed:29
         ~rules:(Plan.heartbeat_loss ~src:3 ~from_:0.2 ~until_:0.6 ())
         ~crashes:[ Plan.crash ~node:0 ~at:0.25 ~restart:0.7 ] ())
  in
  let engine = Engine.create sim cfg ~faults () in
  let gen =
    Workload.Synthetic.generator
      {
        (Workload.Synthetic.default ~nodes) with
        Workload.Synthetic.arrival_rate = 400.;
        read_ratio = 0.3;
        fanout = 2;
        keys_per_node = 15;
      }
  in
  let outcome =
    Runner.drive sim (Engine.packed engine) gen
      { Runner.seed = 29; duration = 0.9; settle = 4.0; max_txns = 5_000 }
  in
  let c = Counter_set.get outcome.Runner.stats in
  checkb "advancement kept going under suspicion" true
    (Engine.advancements_completed engine >= 1);
  checkb "heartbeats sent" true (c "fd.heartbeats_sent" > 0);
  checkb "crash + storm provoked a suspicion" true (c "fd.suspicions" > 0);
  checkb "a suspected node re-earned trust" true (c "fd.recoveries" > 0);
  Certified.check ~engine "crash + storm" outcome

(* --------------------------------------------------------------- suite *)

let () =
  Alcotest.run "fd"
    [
      ( "detector",
        [
          Alcotest.test_case "config validation" `Quick detector_validation;
          Alcotest.test_case "suspicion lifecycle" `Quick detector_lifecycle;
          Alcotest.test_case "bounded backoff" `Quick detector_bounded_backoff;
          Alcotest.test_case "adaptive horizon" `Quick
            detector_adaptive_horizon;
          Alcotest.test_case "deterministic" `Quick detector_deterministic;
          QCheck_alcotest.to_alcotest qcheck_probes_change_nothing;
        ] );
      ( "mcheck",
        [
          Alcotest.test_case "false suspicion in each phase" `Quick
            false_suspicion_each_phase;
        ] );
      ( "qcheck",
        [
          Alcotest.test_case "golden run clean" `Quick qcheck_golden_clean;
          QCheck_alcotest.to_alcotest qcheck_hb_loss;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "undetected outage rides the watchdog" `Quick
            undetected_outage_degrades;
          Alcotest.test_case "crash + false-suspicion storm" `Quick
            crash_and_storm;
        ] );
    ]
