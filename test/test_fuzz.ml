(* Tests for the schedule-fuzz harness: case derivation and sweeps must be
   bit-for-bit deterministic (the reproducer contract), every strict case's
   `threev_sim run` reproducer must parse back to the run fuzz drove, small
   strict sweeps must come back 1SR-clean, and the e10/e13-style golden
   fault histories must certify clean under every offline checker. *)

module Sim = Simul.Sim
module Engine = Threev.Engine
module Runner = Harness.Runner
module Fuzz = Harness.Fuzz
module Scenario = Harness.Scenario

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------------------------------------------------------- determinism *)

let case_of_index_deterministic () =
  for i = 0 to 24 do
    let a = Fuzz.case_of_index ~fuzz_seed:7 ~quick:true i in
    let b = Fuzz.case_of_index ~fuzz_seed:7 ~quick:true i in
    checkb (Printf.sprintf "case %d replays identically" i) true (a = b)
  done;
  (* Different fuzz seeds must actually vary the cases. *)
  let differs =
    List.exists
      (fun i ->
        Fuzz.case_of_index ~fuzz_seed:7 ~quick:true i
        <> Fuzz.case_of_index ~fuzz_seed:8 ~quick:true i)
      [ 0; 1; 2; 3; 4 ]
  in
  checkb "fuzz seed perturbs the cases" true differs

let engines_rotate () =
  let kinds =
    List.map
      (fun i -> (Fuzz.case_of_index ~fuzz_seed:1 ~quick:true i).Fuzz.engine)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  checkb "indices 0-7 cover the engine matrix" true
    (List.sort_uniq compare kinds
    = List.sort_uniq compare
        [
          Fuzz.E3v; Fuzz.E3v_nc; Fuzz.E3v_repl; Fuzz.E3v_fd; Fuzz.E3v_shard;
          Fuzz.E2pc; Fuzz.E_nocoord; Fuzz.E_manual;
        ]);
  (* Replicated cases always carry at least one data-node crash. *)
  let repl_case =
    (Fuzz.case_of_index ~fuzz_seed:1 ~quick:true 5).Fuzz.scenario
  in
  checkb "replicated case is k=3" true (repl_case.Scenario.replicas = 3);
  checkb "replicated case crashes a replica" true
    (List.exists
       (function Scenario.Crash _ -> true | _ -> false)
       repl_case.Scenario.faults);
  (* Failure-detector cases always carry a heartbeat-loss storm. *)
  let fd_case = Fuzz.case_of_index ~fuzz_seed:1 ~quick:true 6 in
  checkb "fd case is 3v-fd" true (fd_case.Fuzz.engine = Fuzz.E3v_fd);
  checkb "fd case is k=3" true (fd_case.Fuzz.scenario.Scenario.replicas = 3);
  checkb "fd case storms heartbeats" true
    (List.exists
       (function Scenario.Hb_loss _ -> true | _ -> false)
       fd_case.Fuzz.scenario.Scenario.faults);
  (* Sharded cases always crash a replica inside some shard block. *)
  let shard_case = Fuzz.case_of_index ~fuzz_seed:1 ~quick:true 7 in
  checkb "shard case is 3v-shard" true (shard_case.Fuzz.engine = Fuzz.E3v_shard);
  let sc = shard_case.Fuzz.scenario in
  checkb "shard case is S=4 k=2" true
    (sc.Scenario.shards = 4 && sc.Scenario.replicas = 2);
  checkb "shard case crashes a replica" true
    (List.exists
       (function Scenario.Crash _ -> true | _ -> false)
       sc.Scenario.faults)

let verdict_tag = function
  | Fuzz.Clean -> "clean"
  | Fuzz.Anomaly _ -> "anomaly"
  | Fuzz.Failure _ -> "failure"

let sweep_deterministic () =
  let run () = Fuzz.sweep ~runs:5 ~quick:true () in
  let a = run () and b = run () in
  checki "same total" a.Fuzz.total b.Fuzz.total;
  List.iter2
    (fun (ra : Fuzz.case_report) (rb : Fuzz.case_report) ->
      let i = ra.Fuzz.case.Fuzz.index in
      checkb
        (Printf.sprintf "case %d same case" i)
        true
        (ra.Fuzz.case = rb.Fuzz.case);
      checki (Printf.sprintf "case %d same commits" i) ra.Fuzz.committed
        rb.Fuzz.committed;
      Alcotest.(check string)
        (Printf.sprintf "case %d same verdict" i)
        (verdict_tag ra.Fuzz.verdict)
        (verdict_tag rb.Fuzz.verdict))
    a.Fuzz.reports b.Fuzz.reports

(* ------------------------------------------------------- strict sweeps *)

let strict engine =
  match engine with
  | Fuzz.E3v | Fuzz.E3v_nc | Fuzz.E3v_repl | Fuzz.E3v_fd | Fuzz.E3v_shard
  | Fuzz.E2pc ->
      true
  | Fuzz.E_nocoord | Fuzz.E_manual -> false

let small_sweep_strict_clean () =
  let s = Fuzz.sweep ~runs:10 ~quick:true () in
  checkb "no strict failures" true (Fuzz.ok s);
  checki "all cases ran" 10 s.Fuzz.total;
  (* The certifier has teeth: a seeded-anomaly baseline gets flagged. *)
  checkb "at least one baseline anomaly flagged" true
    (s.Fuzz.anomalies_flagged >= 1);
  List.iter
    (fun (r : Fuzz.case_report) ->
      if strict r.Fuzz.case.Fuzz.engine then
        checkb
          (Printf.sprintf "strict case %d clean" r.Fuzz.case.Fuzz.index)
          true
          (r.Fuzz.verdict = Fuzz.Clean))
    s.Fuzz.reports

let only_selects_one_case () =
  let s = Fuzz.sweep ~runs:50 ~only:3 ~quick:true () in
  checki "one report" 1 s.Fuzz.total;
  match s.Fuzz.reports with
  | [ r ] -> checki "the requested index" 3 r.Fuzz.case.Fuzz.index
  | _ -> Alcotest.fail "expected exactly one report"

(* --------------------------------------------------------- reproducers *)

(* What a generator emits from a fixed RNG: its name, rate and first
   transactions. *)
let stream (g : Workload.Generator.t) =
  let rng = Random.State.make [| 7 |] in
  ( g.Workload.Generator.gen_name,
    g.Workload.Generator.arrival_rate,
    List.init 25 (fun id -> g.Workload.Generator.make rng ~id) )

(* Every strict case's reproducer, parsed by the `run` term, is the run
   fuzz drove: same engine config, generator, setup and fault plan. *)
let reproducers_parse_back () =
  List.iter
    (fun quick ->
      for index = 0 to 399 do
        let case = Fuzz.case_of_index ~fuzz_seed:1 ~quick index in
        if strict case.Fuzz.engine then begin
          let sc = case.Fuzz.scenario in
          let back = Run_args.parse (Scenario.to_argv sc) in
          let same what ok =
            if not ok then
              Alcotest.failf "case %d (quick %b): %s differs after `run %s`"
                index quick what
                (String.concat " " (Scenario.to_argv sc))
          in
          let agree f = f back = f sc in
          same "validity" (Scenario.validate back = Ok ());
          same "engine config" (agree Scenario.engine_config);
          same "generator" (agree (fun s -> stream (Scenario.generator s)));
          same "setup" (agree Scenario.setup);
          same "fault plan" (agree Scenario.plan)
        end
      done)
    [ true; false ]

(* [case] under fuzz (a strict case runs [Scenario.run] on its scenario)
   and its parsed reproducer drive the same history and the same
   heartbeat drops and channel acks. *)
let replays_from_reproducer what (case : Fuzz.case) =
  let sc = case.Fuzz.scenario in
  let a = Scenario.run sc in
  let b = Scenario.run (Run_args.parse (Scenario.to_argv sc)) in
  let counter (d : _ Scenario.driven) name =
    Stats.Counter_set.get d.Scenario.outcome.Runner.stats name
  in
  checkb (what ^ ": same history") true
    (a.Scenario.outcome.Runner.history = b.Scenario.outcome.Runner.history);
  List.iter
    (fun name ->
      checki
        (Printf.sprintf "%s: same %s" what name)
        (counter a name) (counter b name))
    [ "fault.hb_drops"; "net.chan_acks" ];
  a

(* Full case 3670 storms the heartbeats of the node its one-way partition
   cuts: plan rules must not depend on flag order. *)
let overlapping_rules_replay () =
  let case = Fuzz.case_of_index ~fuzz_seed:1 ~quick:false 3670 in
  let d = replays_from_reproducer "case 3670" case in
  checki "case 3670: heartbeats dropped" 10
    (Stats.Counter_set.get d.Scenario.outcome.Runner.stats "fault.hb_drops")

(* A failure-detector case whose plan shrinks to nothing runs with the
   reliable channel off, under fuzz and under its reproducer alike. *)
let shrunk_fd_case_replays () =
  let case = Fuzz.case_of_index ~fuzz_seed:1 ~quick:false 6 in
  checkb "case 6 is 3v-fd" true (case.Fuzz.engine = Fuzz.E3v_fd);
  let d =
    replays_from_reproducer "case 6, no faults"
      { case with scenario = { case.Fuzz.scenario with faults = [] } }
  in
  checki "case 6, no faults: channel off" 0
    (Stats.Counter_set.get d.Scenario.outcome.Runner.stats "net.chan_acks")

(* ------------------------------------------- golden fault certification

   These mirror the e10/e13-style golden histories in test_harness.ml (node
   pause during load; coordinator crash mid-advancement on the reliable
   channel) and assert that Harness.Certify — the MVSG certifier, atomic
   visibility, version reads, replay and settling — passes them. The
   digests over these same runs live in test_harness.ml; here we care
   about 1SR, not byte identity. *)

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

let golden_e10_certifies () =
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
  Certified.check ~engine "e10-style" outcome

let golden_e13_certifies () =
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
  checkb "e13-style advanced past v0" true (Engine.max_versions_ever engine > 1);
  Certified.check ~engine "e13-style" outcome

(* Plain 3V runs across a few seeds certify clean — the cheap end of the
   acceptance sweep, kept in-tree so `dune runtest` exercises it. *)
let threev_seeds_certify_clean () =
  List.iter
    (fun seed ->
      let nodes = 3 in
      let sim = Sim.create ~seed () in
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
          { Runner.seed = seed; duration = 0.6; settle = 4.0; max_txns = 10_000 }
      in
      Certified.check ~engine (Printf.sprintf "3v seed %d" seed) outcome)
    [ 5; 23; 42 ]

let () =
  Alcotest.run "fuzz"
    [
      ( "determinism",
        [
          Alcotest.test_case "case_of_index replays" `Quick
            case_of_index_deterministic;
          Alcotest.test_case "engines rotate over 8 indices" `Quick
            engines_rotate;
          Alcotest.test_case "sweep replays" `Quick sweep_deterministic;
        ] );
      ( "reproducers",
        [
          Alcotest.test_case "strict reproducers parse back" `Quick
            reproducers_parse_back;
          Alcotest.test_case "overlapping partition + hb-loss replays" `Quick
            overlapping_rules_replay;
          Alcotest.test_case "fd case without faults replays" `Quick
            shrunk_fd_case_replays;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "small sweep strict-clean" `Quick
            small_sweep_strict_clean;
          Alcotest.test_case "--only selects one case" `Quick
            only_selects_one_case;
        ] );
      ( "golden",
        [
          Alcotest.test_case "e10-style history certifies" `Quick
            golden_e10_certifies;
          Alcotest.test_case "e13-style history certifies" `Quick
            golden_e13_certifies;
          Alcotest.test_case "3v seeds certify clean" `Quick
            threev_seeds_certify_clean;
        ] );
    ]
