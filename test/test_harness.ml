(* Tests for the experiment harness: the workload driver, the Table 1
   replay (the paper's own worked example is asserted here, row by row),
   and the experiment registry. *)

module Sim = Simul.Sim
module Spec = Txn.Spec
module Result = Txn.Result
module Engine = Threev.Engine
module Trace = Threev.Trace
module Runner = Harness.Runner
module Table1 = Harness.Table1
module Experiments = Harness.Experiments
module Key = Store.Key

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------ runner *)

let runner_drives_and_harvests () =
  let sim = Sim.create ~seed:2 () in
  let engine = Engine.create sim (Engine.default_config ~nodes:3) () in
  let gen =
    Workload.Synthetic.generator
      {
        (Workload.Synthetic.default ~nodes:3) with
        Workload.Synthetic.arrival_rate = 200.;
      }
  in
  let outcome =
    Runner.drive sim (Engine.packed engine) gen
      { Runner.seed = 2; duration = 0.5; settle = 2.0; max_txns = 1000 }
  in
  checkb "some submitted" true (outcome.Runner.submitted > 50);
  checki "all harvested" outcome.Runner.submitted
    (List.length outcome.Runner.history);
  checki "nothing unfinished" 0 outcome.Runner.unfinished;
  checki "committed = history (no aborts here)" outcome.Runner.committed
    (List.length outcome.Runner.history);
  checkb "throughput positive" true (outcome.Runner.throughput > 0.);
  checkb "latencies recorded" true
    (Stats.Histogram.count outcome.Runner.read_latency > 0
    && Stats.Histogram.count outcome.Runner.update_latency > 0)

let runner_max_txns_cap () =
  let sim = Sim.create ~seed:2 () in
  let engine = Engine.create sim (Engine.default_config ~nodes:2) () in
  let gen =
    Workload.Synthetic.generator
      {
        (Workload.Synthetic.default ~nodes:2) with
        Workload.Synthetic.arrival_rate = 10_000.;
      }
  in
  let outcome =
    Runner.drive sim (Engine.packed engine) gen
      { Runner.seed = 2; duration = 5.0; settle = 2.0; max_txns = 25 }
  in
  checki "capped" 25 outcome.Runner.submitted

(* ------------------------------------------------------------ table1 *)

let replay = lazy (Table1.run ())

let table1_protocol_outcomes () =
  let r = Lazy.force replay in
  checkb "advancement completed" true r.Table1.advancement_completed;
  checki "read version after" 1 r.Table1.read_version_after;
  checkb "i committed" true r.Table1.txn_i_committed;
  checkb "j committed" true r.Table1.txn_j_committed;
  checkb "reads saw version 0" true r.Table1.reads_saw_version0

let table1_final_counters_match_paper () =
  let r = Lazy.force replay in
  (* Exactly the paper's final counter state: each of the six
     subtransaction requests matched by a completion. *)
  checkb "counters" true
    (r.Table1.final_counters
    = [
        ("C1[p->p]", 1); ("C1[p->q]", 1); ("C1[p->s]", 1); ("C1[q->p]", 1);
        ("C2[q->p]", 1); ("C2[q->q]", 1); ("R1[p->p]", 1); ("R1[p->q]", 1);
        ("R1[p->s]", 1); ("R1[q->p]", 1); ("R2[q->p]", 1); ("R2[q->q]", 1);
      ])

let table1_event_order () =
  let r = Lazy.force replay in
  let events = Trace.events r.Table1.trace in
  let index pattern =
    let rec go i = function
      | [] -> Alcotest.failf "event %S not found in trace" pattern
      | (e : Trace.event) :: rest ->
          let contains =
            let n = String.length e.what and m = String.length pattern in
            let rec scan j =
              j + m <= n && (String.sub e.what j m = pattern || scan (j + 1))
            in
            m <= n && scan 0
          in
          if contains then i else go (i + 1) rest
    in
    go 0 events
  in
  (* The paper's Table 1 row order, as trace-pattern precedences. *)
  let order =
    [
      "update tx i arrives";
      "tx i updates A version 1";
      "tx i updates F version 1";
      "tx x reads A version 0";
      "version advancement begins";
      "update tx j arrives; version 2";
      "tx j updates D version 2";
      "tx i updates D versions 1,2" (* the dual write, paper time 14 *);
      "tx i updates E version 1" (* single write, paper time 15 *);
      "tx y reads D version 0";
      "implicit notification: advancing update version to 2" (* paper 19 *);
      "tx j updates A version 2";
      "tx j is complete";
      "tx i updates B version 1";
      "tx i is complete";
      "phase 1 complete";
      "phase 2 complete";
      "read version advanced to 1";
      "phase 4 complete";
    ]
  in
  let indices = List.map index order in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  checkb "paper row order preserved" true (increasing indices)

let table1_figure2_layouts () =
  let r = Lazy.force replay in
  let find_snap time =
    List.find (fun s -> Float.abs (s.Table1.snap_time -. time) < 0.5) r.Table1.snapshots
  in
  let versions snap site key =
    let _, _, _, keys =
      List.find (fun (s, _, _, _) -> s = site) snap.Table1.sites
    in
    List.sort compare (List.assoc key keys)
  in
  let t12 = find_snap 12. and t20 = find_snap 20. in
  let final = List.nth r.Table1.snapshots (List.length r.Table1.snapshots - 1) in
  (* After time 12 (Figure 2 second panel). *)
  checkb "t12: A in 0,1" true (versions t12 "p" "A" = [ 0; 1 ]);
  checkb "t12: D in 0,2" true (versions t12 "q" "D" = [ 0; 2 ]);
  checkb "t12: E only 0" true (versions t12 "q" "E" = [ 0 ]);
  (* After time 20 (third panel): the three-version maximum. *)
  checkb "t20: A in 0,1,2" true (versions t20 "p" "A" = [ 0; 1; 2 ]);
  checkb "t20: D in 0,1,2" true (versions t20 "q" "D" = [ 0; 1; 2 ]);
  checkb "t20: F in 0,1" true (versions t20 "s" "F" = [ 0; 1 ]);
  (* Eventually (fourth panel): GC dropped or relabelled version 0. *)
  checkb "final: A in 1,2" true (versions final "p" "A" = [ 1; 2 ]);
  checkb "final: B relabelled to 1" true (versions final "p" "B" = [ 1 ]);
  checkb "final: D in 1,2" true (versions final "q" "D" = [ 1; 2 ]);
  checkb "final: E in 1" true (versions final "q" "E" = [ 1 ]);
  checkb "final: F in 1" true (versions final "s" "F" = [ 1 ])

let table1_renderers () =
  let r = Lazy.force replay in
  checkb "trace renders" true (String.length (Table1.render_trace r) > 500);
  checkb "snapshots render" true (String.length (Table1.render_snapshots r) > 100)

(* -------------------------------------------------------- experiments *)

let registry_complete () =
  let ids = List.map (fun (e : Experiments.t) -> e.Experiments.id) Experiments.all in
  checkb "all present" true
    (ids
    = [
        "t1"; "f1"; "f2"; "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8";
        "e10"; "e11"; "e12"; "e13"; "e14"; "e15"; "e9"; "a1"; "a2"; "a3";
        "a4";
      ])

let registry_find () =
  checkb "find e4" true (Experiments.find "E4" <> None);
  checkb "unknown" true (Experiments.find "zz" = None)

let experiment_t1_runs () =
  match Experiments.find "t1" with
  | Some e ->
      let out = e.Experiments.run ~quick:true in
      checkb "mentions true checks" true
        (let contains s sub =
           let n = String.length s and m = String.length sub in
           let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
           scan 0
         in
         contains out "| true |" && not (contains out "| false |"))
  | None -> Alcotest.fail "t1 missing"

let experiment_e4_runs () =
  match Experiments.find "e4" with
  | Some e ->
      let out = e.Experiments.run ~quick:true in
      checkb "bound holds column is true" true
        (let contains s sub =
           let n = String.length s and m = String.length sub in
           let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
           scan 0
         in
         contains out "true" && not (contains out "false"))
  | None -> Alcotest.fail "e4 missing"

(* ------------------------------------------------- golden schedules *)

(* Byte-identical replay: any drift in these digests (or event counts)
   means a change altered a schedule or what a run observed, not just its
   cost. The digest XOR-folds one hash per transaction over its id,
   outcome, submit time, both latencies, version and serving node, chained
   with every read's key, amount and writer ids in execution order, so a
   change to what a read returned shows even when every timing holds. *)

let read_digest h (key, (v : Txn.Value.t)) =
  List.fold_left
    (fun h w -> Hashtbl.hash (h, w))
    (Hashtbl.hash (h, Key.name key, v.Txn.Value.amount))
    (Txn.Value.Writers.descending v.Txn.Value.writers)

let history_digest (outcome : Runner.outcome) =
  List.fold_left
    (fun acc ((spec : Spec.t), (res : Result.t)) ->
      acc
      lxor Hashtbl.hash
             ( spec.Spec.id,
               Result.committed res,
               res.Result.submit_time,
               Result.latency res,
               Result.blocking_latency res,
               res.Result.version,
               res.Result.served_by,
               List.fold_left read_digest 0 res.Result.reads ))
    0 outcome.Runner.history

let golden_gen nodes =
  Workload.Synthetic.generator
    {
      (Workload.Synthetic.default ~nodes) with
      Workload.Synthetic.arrival_rate = 300.;
      read_ratio = 0.25;
      fanout = 2;
      keys_per_node = 15;
      zipf_s = 0.7;
    }

let check_golden name ~digest ~events (d, n) =
  checkb
    (Printf.sprintf "%s digest 0x%08x (got 0x%08x)" name digest
       (d land 0xffffffff))
    true
    (d land 0xffffffff = digest);
  checki (name ^ " event count") events n

(* E10-style: node pause fault, fault-free channel config otherwise. *)
let golden_e10_style () =
  let nodes = 4 in
  let sim = Sim.create ~seed:151 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Netsim.Latency.Exponential 0.003;
      think_time = 0.0005;
      policy = Threev.Policy.Periodic 0.2;
    }
  in
  let engine = Engine.create sim cfg () in
  Engine.inject_pause engine ~node:(nodes - 1) ~at:0.5 ~duration:0.5;
  let outcome =
    Runner.drive sim (Engine.packed engine) (golden_gen nodes)
      { Runner.seed = 151; duration = 1.2; settle = 4.0; max_txns = 100_000 }
  in
  check_golden "e10-style" ~digest:0x1f1d24b2 ~events:8035
    (history_digest outcome, Sim.events_executed sim)

(* E13-style: coordinator crash mid-advancement over the reliable channel. *)
let golden_e13_style () =
  let nodes = 4 in
  let sim = Sim.create ~seed:171 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Netsim.Latency.Exponential 0.003;
      think_time = 0.0005;
      policy = Threev.Policy.Manual;
      reliable_channel = true;
      retransmit_timeout = 0.02;
    }
  in
  let faults =
    Fault.Injector.create sim
      (Fault.Plan.make ~seed:1713
         ~coord_crashes:[ Fault.Plan.coord_crash ~at:0.6 ~restart:0.9 ] ())
  in
  let engine = Engine.create sim cfg ~faults () in
  Sim.schedule sim ~delay:0.5 (fun () -> ignore (Engine.advance engine));
  let outcome =
    Runner.drive sim (Engine.packed engine) (golden_gen nodes)
      { Runner.seed = 171; duration = 1.2; settle = 5.0; max_txns = 100_000 }
  in
  check_golden "e13-style" ~digest:0x293c288b ~events:8558
    (history_digest outcome, Sim.events_executed sim)

let golden_fault_free () =
  let nodes = 3 in
  let sim = Sim.create ~seed:99 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Netsim.Latency.Exponential 0.003;
      think_time = 0.0005;
      policy = Threev.Policy.Periodic 0.15;
    }
  in
  let engine = Engine.create sim cfg () in
  let outcome =
    Runner.drive sim (Engine.packed engine) (golden_gen nodes)
      { Runner.seed = 99; duration = 1.0; settle = 4.0; max_txns = 100_000 }
  in
  check_golden "fault-free" ~digest:0x3a88689e ~events:7470
    (history_digest outcome, Sim.events_executed sim)

(* E15-style: k = 3 with the heartbeat detector and the stall watchdog on,
   a replica-group crash and a heartbeat-loss storm on a live node. The
   watchdog's suspicion excusal completes a coordinator wait here, as it
   does once per drive of the benchmark's faults-k3 workload. *)
let golden_e15_style () =
  let nodes = 6 in
  let sim = Sim.create ~seed:211 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Netsim.Latency.Exponential 0.003;
      think_time = 0.0005;
      policy = Threev.Policy.Manual;
      replicas = 3;
      hb_period = 0.02;
      hb_timeout = 0.08;
      phase_deadline = 0.5;
      reliable_channel = true;
      retransmit_timeout = 0.02;
    }
  in
  let faults =
    Fault.Injector.create sim
      (Fault.Plan.make ~seed:2111
         ~crashes:
           (Fault.Plan.crash_replicas ~members:[ 0; 1; 2 ] ~keep:1 ~at:1.0
              ~restart:1.5)
         ~rules:(Fault.Plan.heartbeat_loss ~src:3 ~from_:0.9 ~until_:1.8 ())
         ())
  in
  let engine = Engine.create sim cfg ~faults () in
  Sim.schedule sim ~delay:0.95 (fun () -> ignore (Engine.advance engine));
  let outcome =
    Runner.drive sim (Engine.packed engine) (golden_gen nodes)
      { Runner.seed = 211; duration = 1.5; settle = 6.0; max_txns = 100_000 }
  in
  let stat = Stats.Counter_set.get outcome.Runner.stats in
  checkb "a phase stalled" true (stat "proto.phase_stalled" > 0);
  checkb "suspicion excused a member" true (stat "proto.suspicion_excused" > 0);
  check_golden "e15-style" ~digest:0x024a0d59 ~events:25463
    (history_digest outcome, Sim.events_executed sim)

(* Sharded and replicated: S = 4 shards of two k = 2 groups' worth of
   nodes, periodic advancement, and reads that cross shards on read
   vectors. *)
let golden_sharded () =
  let nodes = 8 in
  let sim = Sim.create ~seed:77 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Netsim.Latency.Exponential 0.003;
      think_time = 0.0005;
      policy = Threev.Policy.Periodic 0.1;
      shards = 4;
      replicas = 2;
    }
  in
  let engine = Engine.create sim cfg () in
  let gen =
    Workload.Synthetic.generator
      {
        (Workload.Synthetic.default ~nodes) with
        Workload.Synthetic.shards = 4;
        arrival_rate = 300.;
        read_ratio = 0.5;
        fanout = 2;
        keys_per_node = 15;
        zipf_s = 0.7;
      }
  in
  let outcome =
    Runner.drive sim (Engine.packed engine) gen
      { Runner.seed = 77; duration = 1.0; settle = 4.0; max_txns = 100_000 }
  in
  checkb "reads crossed shards" true
    (Stats.Counter_set.get outcome.Runner.stats "shard.vectored_reads" > 0);
  check_golden "sharded" ~digest:0x2b492d76 ~events:17432
    (history_digest outcome, Sim.events_executed sim)

(* Coordinator crashes swept over one four-node advancement: every 5 ms
   from the advancement's Switch_update record to its Committed record (the
   times of a crash-free reference run) and once while idle, each with a
   0.05 s and a 0.3 s restart delay. The pinned value folds every run's
   history digest, every write-ahead-log record and its recovery count;
   the pinned count is the runs' events summed. *)
let coord_crash_run ?crash () =
  let nodes = 4 in
  let sim = Sim.create ~seed:171 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Netsim.Latency.Exponential 0.003;
      think_time = 0.0005;
      policy = Threev.Policy.Manual;
      reliable_channel = true;
      retransmit_timeout = 0.02;
    }
  in
  let coord_crashes =
    match crash with
    | None -> []
    | Some (at, restart) -> [ Fault.Plan.coord_crash ~at ~restart ]
  in
  let faults =
    Fault.Injector.create sim (Fault.Plan.make ~seed:1713 ~coord_crashes ())
  in
  let engine = Engine.create sim cfg ~faults () in
  Sim.schedule sim ~delay:0.5 (fun () -> ignore (Engine.advance engine));
  let outcome =
    Runner.drive sim (Engine.packed engine) (golden_gen nodes)
      { Runner.seed = 171; duration = 0.8; settle = 3.0; max_txns = 100_000 }
  in
  let log = Threev.Coord_log.records (Engine.coord_log engine) in
  let d =
    List.fold_left
      (fun h r -> Hashtbl.hash (h, r))
      (Hashtbl.hash
         ( history_digest outcome,
           Stats.Counter_set.get outcome.Runner.stats "proto.coord_recoveries" ))
      log
  in
  (d, Sim.events_executed sim, log)

let golden_coord_crash_sweep () =
  let d0, n0, log = coord_crash_run () in
  let time_of f = List.find_map f log |> Option.get in
  let first =
    time_of (function
      | Threev.Coord_log.Phase { adv = 1; phase = Switch_update; time; _ } -> Some time
      | _ -> None)
  and committed =
    time_of (function
      | Threev.Coord_log.Committed { adv = 1; time } -> Some time
      | _ -> None)
  in
  let steps = int_of_float ((committed -. first) /. 0.005) in
  let crashes = 0.2 :: List.init (steps + 1) (fun i -> first +. (0.005 *. float_of_int i)) in
  let fold =
    List.fold_left
      (fun acc delay ->
        List.fold_left
          (fun (d, n) at ->
            let d', n', _ = coord_crash_run ~crash:(at, at +. delay) () in
            (Hashtbl.hash (d, d'), n + n'))
          acc crashes)
      (d0, n0) [ 0.05; 0.3 ]
  in
  check_golden "coordinator crash sweep" ~digest:0x3f9e70c5 ~events:298108 fold

(* The §5 path, on E5's shape: four point-of-sale nodes at 400/s with a
   fifth of the transactions reads. The NC3V run (half the updates
   non-commuting, under commute and non-commute locks) parks root
   admissions on [vu = vr + 1], queues lock requests and fails lock waits;
   in the Global-2PC run some releases wake waiters on two or more keys. *)
let golden_nc nc_ratio config =
  let nodes = 4 in
  let gen =
    Workload.Point_of_sale.generator
      {
        (Workload.Point_of_sale.default ~nodes) with
        Workload.Point_of_sale.nc_ratio;
        arrival_rate = 400.;
        read_ratio = 0.2;
      }
  in
  let d =
    Harness.Scenario.drive (config nodes) gen
      { Runner.default_setup with Runner.seed = 61; duration = 2.0; settle = 3.0 }
  in
  (history_digest d.Harness.Scenario.outcome, Sim.events_executed d.Harness.Scenario.sim)

let golden_nc3v () =
  check_golden "nc3v" ~digest:0x1aef724e ~events:17084
    (golden_nc 0.5 (fun nodes ->
         Harness.Scenario.V3
           {
             (Harness.Scenario.v3 ~nodes (Threev.Policy.Periodic 0.2)) with
             Engine.nc_mode = true;
             deadlock_timeout = 0.05;
           }))

let golden_global_2pc () =
  check_golden "global-2pc" ~digest:0x1bd89b27 ~events:14340
    (golden_nc 0.1 (fun nodes -> Harness.Scenario.twopc ~nodes ()))

(* The two §1 baselines, each on the shape of the experiment that shows
   its anomaly: F1's front-end hospital for no coordination, E8's
   straggler links under a reckless safety delay for manual versioning. *)
let golden_baseline name ~digest ~events ~seed ~duration packed gen =
  let sim = Sim.create ~seed () in
  let outcome =
    Runner.drive sim (packed sim) gen
      { Runner.seed; duration; settle = 3.0; max_txns = 100_000 }
  in
  check_golden name ~digest ~events
    (history_digest outcome, Sim.events_executed sim)

let golden_no_coordination () =
  let nodes = 4 in
  golden_baseline "no-coordination" ~digest:0x02d80f4a ~events:5266 ~seed:11
    ~duration:0.5
    (fun sim ->
      Baselines.Manual_versioning.packed
        (Baselines.Manual_versioning.create sim
           {
             Baselines.Manual_versioning.nodes;
             latency = Netsim.Latency.Exponential 0.003;
             think_time = 0.0005;
             schedule = Unversioned;
           }))
    (Workload.Hospital.generator
       {
         (Workload.Hospital.default ~nodes) with
         Workload.Hospital.front_end = true;
         read_ratio = 0.3;
         arrival_rate = 400.;
         visit_fanout = 2;
       })

let golden_manual_versioning () =
  let nodes = 4 in
  golden_baseline "manual-versioning" ~digest:0x1258b4bb ~events:26206 ~seed:91
    ~duration:1.2
    (fun sim ->
      Baselines.Manual_versioning.packed
        (Baselines.Manual_versioning.create sim
           {
             Baselines.Manual_versioning.nodes;
             latency = Netsim.Latency.Uniform (0.0005, 0.012);
             think_time = 0.0005;
             schedule = Periodic { period = 0.5; safety_delay = 0.005 };
           }))
    (Workload.Hospital.generator
       {
         (Workload.Hospital.default ~nodes) with
         Workload.Hospital.arrival_rate = 800.;
         read_ratio = 0.4;
         patients = 25;
         visit_fanout = 3;
         post_delay = 0.08;
       })

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "drives and harvests" `Quick
            runner_drives_and_harvests;
          Alcotest.test_case "max_txns cap" `Quick runner_max_txns_cap;
        ] );
      ( "table1",
        [
          Alcotest.test_case "protocol outcomes" `Quick table1_protocol_outcomes;
          Alcotest.test_case "final counters match paper" `Quick
            table1_final_counters_match_paper;
          Alcotest.test_case "event order matches Table 1" `Quick
            table1_event_order;
          Alcotest.test_case "figure 2 layouts" `Quick table1_figure2_layouts;
          Alcotest.test_case "renderers" `Quick table1_renderers;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry complete" `Quick registry_complete;
          Alcotest.test_case "find" `Quick registry_find;
          Alcotest.test_case "t1 runs clean" `Slow experiment_t1_runs;
          Alcotest.test_case "e4 runs clean" `Slow experiment_e4_runs;
        ] );
      ( "golden-schedules",
        [
          Alcotest.test_case "e10-style replay byte-identical" `Quick
            golden_e10_style;
          Alcotest.test_case "e13-style replay byte-identical" `Quick
            golden_e13_style;
          Alcotest.test_case "fault-free replay byte-identical" `Quick
            golden_fault_free;
          Alcotest.test_case "e15-style replay byte-identical" `Quick
            golden_e15_style;
          Alcotest.test_case "sharded replay byte-identical" `Quick golden_sharded;
          Alcotest.test_case "coordinator crash sweep" `Quick
            golden_coord_crash_sweep;
          Alcotest.test_case "nc3v replay byte-identical" `Quick golden_nc3v;
          Alcotest.test_case "global-2pc replay byte-identical" `Quick
            golden_global_2pc;
          Alcotest.test_case "no-coordination replay byte-identical" `Quick
            golden_no_coordination;
          Alcotest.test_case "manual-versioning replay byte-identical" `Quick
            golden_manual_versioning;
        ] );
    ]
