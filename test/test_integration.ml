(* Cross-engine integration tests: the same randomized workloads run on
   every engine, with the offline checkers as oracles.

   The strongest checks:
   - 3V is always atomically visible and its settled store replays exactly
     (no lost/duplicated/half-applied subtransaction), across seeds;
   - 3V's final state agrees with the no-coordination engine's on the same
     workload — both apply all commuting updates, so any divergence means
     a versioning bug (lost dual write, bad GC relabel);
   - the no-coordination baseline is NOT always atomically visible (the
     checkers have teeth);
   - all of this while version advancement churns (the quiescence oracle
     is armed, so an unsound advancement aborts the test run). *)

module Sim = Simul.Sim
module Ivar = Simul.Ivar
module Latency = Netsim.Latency
module Spec = Txn.Spec
module Result = Txn.Result
module Value = Txn.Value
module Engine = Threev.Engine
module Policy = Threev.Policy
module Runner = Harness.Runner
module Key = Store.Key

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let hospital_gen ~nodes ~rate =
  Workload.Hospital.generator
    {
      (Workload.Hospital.default ~nodes) with
      Workload.Hospital.arrival_rate = rate;
      read_ratio = 0.3;
      patients = 30;
      visit_fanout = 2;
      post_delay = 0.005;
    }

let setup ~seed = { Runner.seed; duration = 1.0; settle = 4.0; max_txns = 5000 }

let drive_3v ~seed ~nodes ~rate =
  let sim = Sim.create ~seed () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Latency.Exponential 0.005;
      policy = Policy.Periodic 0.1;
      think_time = 0.0002;
      debug_checks = true;
    }
  in
  let engine = Engine.create sim cfg () in
  let outcome =
    Runner.drive sim (Engine.packed engine) (hospital_gen ~nodes ~rate)
      (setup ~seed)
  in
  (* Two final advancements flush the last update version into the read
     version so the settled store is fully published. *)
  let a1 = Engine.advance engine in
  let a2 = Engine.advance engine in
  ignore (Sim.run sim ~until:(Sim.now sim +. 20.) ());
  checkb "final advancements done" true (Ivar.is_full a1 && Ivar.is_full a2);
  (outcome, engine)

let threev_atomic_and_replays () =
  List.iter
    (fun seed ->
      let outcome, engine = drive_3v ~seed ~nodes:4 ~rate:500. in
      (* Atomic visibility, replay of the settled store, and the exact
         version-read oracle (Theorem 4.1): each read saw exactly the
         committed writers of versions up to its own. *)
      Certified.check ~engine (Printf.sprintf "seed %d" seed) outcome;
      checkb "version bound" true (Engine.max_versions_ever engine <= 3))
    [ 101; 202; 303 ]

let threev_matches_nocoord_final_state () =
  let seed = 7 and nodes = 3 and rate = 400. in
  let outcome_3v, engine_3v = drive_3v ~seed ~nodes ~rate in
  let sim = Sim.create ~seed () in
  let nc =
    Baselines.Manual_versioning.create sim
      {
        (Baselines.Manual_versioning.default_config ~nodes) with
        Baselines.Manual_versioning.latency = Latency.Exponential 0.005;
        think_time = 0.0002;
        schedule = Unversioned;
      }
  in
  let outcome_nc =
    Runner.drive sim
      (Baselines.Manual_versioning.packed nc)
      (hospital_gen ~nodes ~rate) (setup ~seed)
  in
  (* Same seed, same generator stream: both engines saw identical specs. *)
  checki "same submissions" outcome_3v.Runner.submitted
    outcome_nc.Runner.submitted;
  (* Both final states must equal the commuting replay of the history. *)
  let expected = Checker.Replay.expected outcome_3v.Runner.history in
  let mismatches = ref 0 in
  Hashtbl.iter
    (fun key want ->
      let amount store =
        match Harness.Certify.settled_lookup ~nodes store key with
        | Some v -> v.Value.amount
        | None -> 0.
      in
      let amount_3v = amount (Engine.store engine_3v)
      and amount_nc = amount (Baselines.Manual_versioning.store nc) in
      if Float.abs (amount_3v -. want) > 1e-6 then incr mismatches;
      if Float.abs (amount_nc -. amount_3v) > 1e-6 then incr mismatches)
    expected;
  checki "states agree" 0 !mismatches

let nocoord_not_atomic_under_stragglers () =
  (* The checker must have teeth: under late posting, no-coordination shows
     partial reads on at least one of these seeds. *)
  let anomalies =
    List.fold_left
      (fun acc seed ->
        let sim = Sim.create ~seed () in
        let nc =
          Baselines.Manual_versioning.create sim
            {
              (Baselines.Manual_versioning.default_config ~nodes:4) with
              Baselines.Manual_versioning.latency = Latency.Exponential 0.01;
              schedule = Unversioned;
            }
        in
        let gen =
          Workload.Hospital.generator
            {
              (Workload.Hospital.default ~nodes:4) with
              Workload.Hospital.arrival_rate = 800.;
              read_ratio = 0.4;
              patients = 10;
              visit_fanout = 3;
              post_delay = 0.02;
            }
        in
        let outcome =
          Runner.drive sim (Baselines.Manual_versioning.packed nc) gen
            (setup ~seed)
        in
        acc + (Runner.atomicity outcome).Checker.Atomicity.partial_reads)
      0 [ 1; 2; 3 ]
  in
  checkb "anomalies observed" true (anomalies > 0)

let twopc_atomic_but_slower_reads () =
  let seed = 9 and nodes = 4 and rate = 400. in
  let gen = hospital_gen ~nodes ~rate in
  let sim = Sim.create ~seed () in
  let eng2pc =
    Baselines.Global_2pc.create sim
      {
        (Baselines.Global_2pc.default_config ~nodes) with
        Baselines.Global_2pc.latency = Latency.Exponential 0.005;
        think_time = 0.0002;
        deadlock_timeout = 0.1;
      }
  in
  let outcome_2pc =
    Runner.drive sim (Baselines.Global_2pc.packed eng2pc) gen (setup ~seed)
  in
  let atom = Runner.atomicity outcome_2pc in
  checkb "2pc atomic" true (Checker.Atomicity.clean atom);
  let outcome_3v, _ = drive_3v ~seed ~nodes ~rate in
  let p99 o = Stats.Histogram.percentile o.Runner.read_latency 99. in
  checkb "3v read tail at or below 2pc's" true
    (p99 outcome_3v <= p99 outcome_2pc +. 1e-9)

let nc_mixed_workload_serializable () =
  (* POS with price changes: NC3V plus commuting plus reads, with
     advancement churn; atomic visibility must hold and NC aborts must
     leave no trace. *)
  List.iter
    (fun seed ->
      let nodes = 4 in
      let sim = Sim.create ~seed () in
      let cfg =
        {
          (Engine.default_config ~nodes) with
          Engine.latency = Latency.Exponential 0.004;
          policy = Policy.Periodic 0.15;
          nc_mode = true;
          deadlock_timeout = 0.05;
          think_time = 0.0002;
        }
      in
      let engine = Engine.create sim cfg () in
      let gen =
        Workload.Point_of_sale.generator
          {
            (Workload.Point_of_sale.default ~nodes) with
            Workload.Point_of_sale.nc_ratio = 0.2;
            arrival_rate = 400.;
            read_ratio = 0.25;
          }
      in
      let outcome = Runner.drive sim (Engine.packed engine) gen (setup ~seed) in
      Certified.check ~engine (Printf.sprintf "seed %d" seed) outcome;
      (* Commuting transactions and reads never abort (§8 claims). *)
      List.iter
        (fun ((spec : Spec.t), res) ->
          match spec.Spec.kind with
          | Spec.Commuting | Spec.Read_only ->
              if not (Result.committed res) then
                Alcotest.failf "seed %d: %s aborted but is %s" seed
                  spec.Spec.label
                  (Format.asprintf "%a" Spec.pp_kind spec.Spec.kind)
          | Spec.Non_commuting -> ())
        outcome.Runner.history)
    [ 11; 22 ]

let compensation_under_churn_replays () =
  (* Inject compensation into 10% of commuting updates: net effect must be
     exactly the committed subset. *)
  let seed = 55 and nodes = 3 in
  let sim = Sim.create ~seed () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Latency.Exponential 0.005;
      policy = Policy.Periodic 0.1;
      abort_probability = 0.1;
      think_time = 0.0002;
    }
  in
  let engine = Engine.create sim cfg () in
  let outcome =
    Runner.drive sim (Engine.packed engine) (hospital_gen ~nodes ~rate:400.)
      (setup ~seed)
  in
  let a = Engine.advance engine in
  ignore (Sim.run sim ~until:(Sim.now sim +. 20.) ());
  checkb "advanced" true (Ivar.is_full a);
  let compensated =
    List.length
      (List.filter
         (fun (_, (res : Result.t)) -> res.Result.outcome = Result.Aborted "compensated")
         outcome.Runner.history)
  in
  checkb "some compensation happened" true (compensated > 0);
  Certified.check ~engine "compensation" outcome

(* ------------------------------------------------------------ soak *)

(* Kitchen sink: NC transactions + compensation + advancement churn +
   node outages, all at once, with every oracle armed. *)
let soak_with_outages () =
  let nodes = 5 in
  let sim = Sim.create ~seed:77 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Latency.Exponential 0.006;
      think_time = 0.0003;
      policy = Policy.Periodic 0.15;
      nc_mode = true;
      deadlock_timeout = 0.08;
      abort_probability = 0.05;
      debug_checks = true;
    }
  in
  let engine = Engine.create sim cfg () in
  (* Freeze a different node in each of three windows. *)
  Engine.inject_pause engine ~node:1 ~at:0.4 ~duration:0.3;
  Engine.inject_pause engine ~node:3 ~at:1.0 ~duration:0.5;
  Engine.inject_pause engine ~node:0 ~at:1.8 ~duration:0.2;
  let gen =
    Workload.Point_of_sale.generator
      {
        (Workload.Point_of_sale.default ~nodes) with
        Workload.Point_of_sale.nc_ratio = 0.1;
        arrival_rate = 500.;
        read_ratio = 0.25;
      }
  in
  let outcome =
    Runner.drive sim (Engine.packed engine) gen
      { Runner.seed = 77; duration = 2.5; settle = 6.0; max_txns = 5000 }
  in
  Certified.check ~engine "outages" outcome;
  checkb "version bound" true (Engine.max_versions_ever engine <= 3);
  checkb "advancements kept flowing" true
    (Engine.advancements_completed engine >= 5);
  (* Commuting txns and reads never abort, outage or not. *)
  List.iter
    (fun ((spec : Spec.t), res) ->
      match (spec.Spec.kind, res.Result.outcome) with
      | Spec.Read_only, o when o <> Result.Committed ->
          Alcotest.failf "read %s aborted" spec.Spec.label
      | Spec.Commuting, Result.Aborted r when r <> "compensated" ->
          Alcotest.failf "commuting %s aborted: %s" spec.Spec.label r
      | _ -> ())
    outcome.Runner.history

(* ------------------------------------------------------------- fuzzing *)

(* Random transaction forests through the full oracle set: arbitrary tree
   shapes (depth ≤ 3, revisits allowed), random keys, random advancement
   points. Every run must resolve all transactions, stay atomically
   visible, satisfy the exact version-read property, and replay. *)

type fuzz_tree = {
  fnode : int;
  fops : (bool * int) list;  (* (is_read, key slot) *)
  fkids : fuzz_tree list;
}

let fuzz_tree_gen ~nodes =
  let open QCheck.Gen in
  let op_gen = pair bool (int_range 0 5) in
  let rec tree depth =
    let* fnode = int_range 0 (nodes - 1) in
    let* fops = list_size (int_range 1 2) op_gen in
    let* fkids =
      if depth = 0 then return []
      else list_size (int_range 0 2) (tree (depth - 1))
    in
    return { fnode; fops; fkids }
  in
  tree 2

let scenario_gen ~nodes =
  QCheck.Gen.(list_size (int_range 1 25) (pair (fuzz_tree_gen ~nodes) bool))

let spec_of_fuzz ~id tree =
  let key slot node = Key.intern (Printf.sprintf "fz%d@n%d" slot node) in
  let rec build t =
    let ops =
      List.map
        (fun (is_read, slot) ->
          if is_read then Txn.Op.Read (key slot t.fnode)
          else Txn.Op.Incr (key slot t.fnode, 1.))
        t.fops
    in
    Spec.subtxn ~children:(List.map build t.fkids) t.fnode ops
  in
  Spec.make ~id (build tree)

let run_fuzz_scenario scenario =
  let nodes = 3 in
  let sim = Sim.create ~seed:17 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Latency.Exponential 0.004;
      think_time = 0.0002;
      debug_checks = true;
    }
  in
  let engine = Engine.create sim cfg () in
  let results = ref [] in
  Script.run sim
    (List.concat
       (List.mapi
          (fun i (tree, advance_after) ->
            Script.
              [
                Do
                  (fun () ->
                    let spec = spec_of_fuzz ~id:(i + 1) tree in
                    results := (spec, Engine.submit engine spec) :: !results;
                    if advance_after then ignore (Engine.advance engine));
                Wait 0.01;
              ])
          scenario));
  ignore (Sim.run sim ~until:60.0 ());
  let final = Engine.advance engine in
  ignore (Sim.run sim ~until:(Sim.now sim +. 30.) ());
  let history =
    List.filter_map
      (fun (spec, iv) ->
        match Ivar.peek iv with Some res -> Some (spec, res) | None -> None)
      !results
  in
  let all_resolved = List.length history = List.length !results in
  all_resolved
  && Ivar.is_full final
  (* These update transactions also read, and 3V does not isolate the
     reads inside a commuting update, so 1SR is not claimed for them:
     every other check must pass. *)
  && List.for_all
       (fun { Harness.Certify.check_name; ok; _ } ->
         ok || check_name = "serializability")
       (Harness.Certify.run ~engine history).Harness.Certify.checks
  && Engine.max_versions_ever engine <= 3
  && List.length (Engine.version_window engine) <= 3

let fuzz_random_forests =
  QCheck.Test.make ~name:"random transaction forests satisfy all oracles"
    ~count:30
    (QCheck.make (scenario_gen ~nodes:3))
    run_fuzz_scenario

let fuzz_suite = List.map QCheck_alcotest.to_alcotest [ fuzz_random_forests ]

let () =
  Alcotest.run "integration"
    [
      ( "3v",
        [
          Alcotest.test_case "atomic + replays across seeds" `Slow
            threev_atomic_and_replays;
          Alcotest.test_case "matches no-coord final state" `Slow
            threev_matches_nocoord_final_state;
          Alcotest.test_case "compensation under churn replays" `Slow
            compensation_under_churn_replays;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "no-coord not atomic" `Slow
            nocoord_not_atomic_under_stragglers;
          Alcotest.test_case "2pc atomic but slower reads" `Slow
            twopc_atomic_but_slower_reads;
        ] );
      ( "nc3v",
        [
          Alcotest.test_case "mixed workload serializable" `Slow
            nc_mixed_workload_serializable;
        ] );
      ("fuzz", fuzz_suite);
      ( "soak",
        [ Alcotest.test_case "outages + nc + compensation" `Slow soak_with_outages ] );
    ]
