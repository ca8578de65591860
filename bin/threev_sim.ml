(* Command-line driver for the 3V reproduction.

   threev_sim list                         list the experiments
   threev_sim experiment e1 [--quick]      run one experiment (or "all")
   threev_sim table1                       replay the paper's Table 1
   threev_sim run --engine 3v --workload hospital --nodes 4 ...
                                           free-form simulation run *)

module Sim = Simul.Sim
module Latency = Netsim.Latency
module Engine = Threev.Engine
module Policy = Threev.Policy
module Histogram = Stats.Histogram
open Cmdliner

(* ------------------------------------------------------------ list *)

let list_cmd =
  let doc = "List the experiments reproduced from the paper." in
  let run () =
    List.iter
      (fun (e : Harness.Experiments.t) ->
        Printf.printf "%-4s %-45s [%s]\n" e.id e.title e.paper_ref)
      Harness.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ------------------------------------------------------ experiment *)

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Shrink sweeps and durations.")

let experiment_cmd =
  let doc =
    "Run one experiment by id (t1, f1, f2, e1..e15, a1..a4), or $(b,all)."
  in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let run id quick =
    let run_one (e : Harness.Experiments.t) =
      Printf.printf "== %s: %s (%s) ==\n%!" e.id e.title e.paper_ref;
      print_string (e.run ~quick);
      print_newline ()
    in
    match String.lowercase_ascii id with
    | "all" ->
        List.iter run_one Harness.Experiments.all;
        `Ok ()
    | id -> (
        match Harness.Experiments.find id with
        | Some e ->
            run_one e;
            `Ok ()
        | None ->
            `Error
              (false, Printf.sprintf "unknown experiment %S (try `list`)" id))
  in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(ret (const run $ id_arg $ quick_flag))

(* --------------------------------------------------------- table1 *)

let table1_cmd =
  let doc = "Replay the paper's Table 1 execution and print the trace." in
  let run () =
    let replay = Harness.Table1.run () in
    print_string (Harness.Table1.render_trace replay);
    print_newline ();
    print_string (Harness.Table1.render_snapshots replay)
  in
  Cmd.v (Cmd.info "table1" ~doc) Term.(const run $ const ())

(* ---------------------------------------------------------- trace *)

let trace_cmd =
  let doc =
    "Run a small 3V workload with protocol tracing and print the events — \
     watch versions being assigned, dual writes, notices, counters and \
     advancement phases live."
  in
  let events_arg =
    Arg.(value & opt int 80 & info [ "events" ] ~doc:"Events to print.")
  in
  let seed_arg = Arg.(value & opt int 3 & info [ "seed" ] ~doc:"RNG seed.") in
  let cap_arg =
    Arg.(
      value
      & opt int Threev.Trace.default_capacity
      & info [ "trace-cap" ]
          ~doc:
            "Ring-buffer capacity: at most this many events are retained \
             (oldest evicted first).")
  in
  let run events seed cap =
    let sim = Sim.create ~seed () in
    let trace = Threev.Trace.create ~capacity:cap () in
    let cfg =
      {
        (Engine.default_config ~nodes:3) with
        Engine.latency = Latency.Exponential 0.01;
        think_time = 0.002;
        policy = Policy.Periodic 0.2;
      }
    in
    let engine = Engine.create sim cfg ~trace () in
    let gen =
      Workload.Hospital.generator
        {
          (Workload.Hospital.default ~nodes:3) with
          Workload.Hospital.arrival_rate = 60.;
          patients = 5;
        }
    in
    let rng = Random.State.make [| seed |] in
    Sim.spawn sim ~name:"trace-client" (fun () ->
        for i = 1 to 12 do
          ignore (Engine.submit engine (gen.Workload.Generator.make rng ~id:i));
          Sim.sleep sim 0.04
        done);
    ignore (Sim.run sim ~until:1.0 ());
    let shown = ref 0 in
    List.iter
      (fun (e : Threev.Trace.event) ->
        if !shown < events then begin
          incr shown;
          Printf.printf "%8.4f  %-6s %s\n" e.Threev.Trace.time
            e.Threev.Trace.site e.Threev.Trace.what
        end)
      (Threev.Trace.events trace);
    Printf.printf
      "... (%d events emitted, %d retained; --events N to see more, \
       --trace-cap N to retain more)\n"
      (Threev.Trace.total trace) (Threev.Trace.length trace)
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ events_arg $ seed_arg $ cap_arg)

(* ------------------------------------------------------------ run *)

type engine_choice = E_3v | E_2pc | E_nocoord | E_manual

let engine_conv =
  Arg.enum
    [ ("3v", E_3v); ("2pc", E_2pc); ("nocoord", E_nocoord); ("manual", E_manual) ]

type workload_choice = W_hospital | W_calls | W_pos | W_synthetic

let workload_conv =
  Arg.enum
    [
      ("hospital", W_hospital); ("calls", W_calls); ("pos", W_pos);
      ("synthetic", W_synthetic);
    ]

(* Fault-injection flags, shared syntax with lib/fault's plan builders:
   --partition takes either the legacy directed link SRC:DST:FROM:UNTIL or
   the set form SET@FROM:UNTIL[:oneway] (SET comma-separated node ids cut
   off from the rest of the cluster, [:oneway] silences only the set's
   outbound direction); --crash NODE@TIME:RESTART fail-stops a node. The
   grammars live in {!Cli_specs}, shared with the argv pre-scan in main
   (one-line usage + exit 2 on malformed specs) and the test suite. *)
type partition_spec = Cli_specs.partition_spec =
  | P_link of int * int * float * float  (** legacy SRC:DST:FROM:UNTIL *)
  | P_set of int list * float * float * bool  (** SET@FROM:UNTIL[:oneway] *)

let conv_of_spec parse print =
  Arg.conv ((fun s -> Result.map_error (fun m -> `Msg m) (parse s)), print)

let partition_conv =
  conv_of_spec Cli_specs.parse_partition (fun ppf -> function
    | P_link (a, b, c, d) -> Format.fprintf ppf "%d:%d:%g:%g" a b c d
    | P_set (set, f, u, oneway) ->
        Format.fprintf ppf "%s@%g:%g%s"
          (String.concat "," (List.map string_of_int set))
          f u
          (if oneway then ":oneway" else ""))

(* --hb-loss NODE@FROM:UNTIL[:PROB] drops NODE's outgoing heartbeats during
   a window — the false-suspicion provocation: protocol traffic is
   untouched, only the detector's evidence stream is cut. *)
let hb_loss_conv =
  conv_of_spec Cli_specs.parse_hb_loss (fun ppf (n, f, u, p) ->
      if p >= 1. then Format.fprintf ppf "%d@%g:%g" n f u
      else Format.fprintf ppf "%d@%g:%g:%g" n f u p)

let crash_conv =
  conv_of_spec Cli_specs.parse_crash (fun ppf (n, a, r) ->
      Format.fprintf ppf "%d@%g:%g" n a r)

let coord_crash_conv =
  conv_of_spec Cli_specs.parse_coord_crash (fun ppf (a, r) ->
      Format.fprintf ppf "%g:%g" a r)

let data_crash_conv =
  conv_of_spec Cli_specs.parse_data_crash (fun ppf (g, a, r) ->
      Format.fprintf ppf "%d@%g:%g" g a r)

let run_cmd =
  let doc =
    "Run a single engine × workload simulation, print a report and certify \
     the history as fuzz does; exits 1 when a 3v or 2pc run fails a check."
  in
  let engine_arg =
    Arg.(
      value & opt engine_conv E_3v
      & info [ "engine" ] ~docv:"ENGINE" ~doc:"3v, 2pc, nocoord or manual.")
  in
  let workload_arg =
    Arg.(
      value & opt workload_conv W_hospital
      & info [ "workload" ] ~docv:"W" ~doc:"hospital, calls, pos or synthetic.")
  in
  let nodes_arg =
    Arg.(value & opt int 4 & info [ "nodes" ] ~doc:"Number of database nodes.")
  in
  let replicas_arg =
    Arg.(
      value & opt int 1
      & info [ "replicas" ]
          ~doc:
            "Replication factor k: nodes are partitioned into groups of k \
             consecutive replicas; commuting updates mirror to every group \
             member, reads fail over inside the group, and advancement \
             tolerates k-1 crashed replicas per group. 3v engine only; \
             requires --nc-ratio 0.")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ]
          ~doc:
            "Shard count S: nodes are partitioned into S contiguous blocks, \
             each with its own advancement coordinator, write-ahead log and \
             version frontier; update transactions stay within one shard, \
             cross-shard reads get a consistent per-shard read vector. S \
             must divide --nodes evenly and each block must be a multiple \
             of --replicas. 3v engine only; > 1 requires --workload \
             synthetic (the shard-aware generator) and --nc-ratio 0.")
  in
  let rate_arg =
    Arg.(
      value & opt float 400.
      & info [ "rate" ] ~doc:"Transaction arrival rate per virtual second.")
  in
  let duration_arg =
    Arg.(
      value & opt float 2.0
      & info [ "duration" ] ~doc:"Submission window in virtual seconds.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  let period_arg =
    Arg.(
      value & opt float 0.2
      & info [ "advancement-period" ]
          ~doc:"3V advancement / manual versioning period (virtual seconds).")
  in
  let nc_arg =
    Arg.(
      value & opt float 0.
      & info [ "nc-ratio" ]
          ~doc:"Fraction of non-commuting updates (pos/synthetic workloads).")
  in
  let read_arg =
    Arg.(
      value & opt float 0.25 & info [ "read-ratio" ] ~doc:"Read-only fraction.")
  in
  let drop_arg =
    Arg.(
      value & opt float 0.
      & info [ "drop-prob" ]
          ~doc:"Drop each remote message with this probability.")
  in
  let dup_arg =
    Arg.(
      value & opt float 0.
      & info [ "dup-prob" ]
          ~doc:"Duplicate each remote message with this probability.")
  in
  let partition_arg =
    Arg.(
      value
      & opt_all partition_conv []
      & info [ "partition" ] ~docv:"SPEC"
          ~doc:
            "Either SRC:DST:FROM:UNTIL — drop every message on one directed \
             link during [FROM, UNTIL) virtual seconds — or \
             SET\\@FROM:UNTIL[:oneway] — cut the comma-separated node set \
             SET off from the rest of the cluster for the window, both \
             directions by default, only the set's outbound links with \
             :oneway (an asymmetric partition: the set still hears the \
             cluster but is never heard). Repeatable.")
  in
  let hb_period_arg =
    Arg.(
      value & opt float 0.
      & info [ "hb-period" ]
          ~doc:
            "Heartbeat period in virtual seconds: every node beats to the \
             coordinator's failure detector and all liveness decisions \
             (read failover, quorum participation, watchdog excusal) come \
             from heartbeat suspicion instead of ground truth. 0 (default) \
             disables the detector. 3v engine only.")
  in
  let hb_timeout_arg =
    Arg.(
      value & opt float 0.1
      & info [ "hb-timeout" ]
          ~doc:
            "Base suspicion horizon (virtual seconds): a node whose \
             heartbeat is this overdue — adaptively stretched by observed \
             inter-arrival times — becomes suspected. Must exceed \
             --hb-period; used only when --hb-period > 0.")
  in
  let hb_loss_arg =
    Arg.(
      value
      & opt_all hb_loss_conv []
      & info [ "hb-loss" ] ~docv:"NODE\\@FROM:UNTIL[:PROB]"
          ~doc:
            "Drop NODE's outgoing heartbeats during [FROM, UNTIL) with \
             probability PROB (default 1) — provokes false suspicion of a \
             live node without touching protocol traffic. Repeatable; \
             requires --hb-period > 0.")
  in
  let crash_arg =
    Arg.(
      value
      & opt_all crash_conv []
      & info [ "crash" ] ~docv:"NODE\\@TIME:RESTART"
          ~doc:
            "Fail-stop NODE at TIME and restart it at RESTART: volatile \
             state is lost, the durable store and counters survive. \
             Repeatable; 3v engine only.")
  in
  let coord_crash_arg =
    Arg.(
      value
      & opt_all coord_crash_conv []
      & info [ "coord-crash" ] ~docv:"TIME:RESTART"
          ~doc:
            "Fail-stop the advancement coordinator at TIME and restart it \
             at RESTART: volatile phase progress is lost, the write-ahead \
             log survives and the in-flight advancement is re-driven from \
             its last logged phase. Repeatable; 3v engine only.")
  in
  let data_crash_arg =
    Arg.(
      value
      & opt_all data_crash_conv []
      & info [ "data-crash" ] ~docv:"GROUP\\@TIME:RESTART"
          ~doc:
            "Fail-stop all but one replica of replica group GROUP at TIME \
             and restart them at RESTART — the E14 fault shape: quorum \
             advancement and read failover carry the group on its last \
             live replica. Repeatable; requires --replicas > 1.")
  in
  let phase_deadline_arg =
    Arg.(
      value & opt float infinity
      & info [ "phase-deadline" ]
          ~doc:
            "Stall watchdog deadline (virtual seconds) per advancement \
             phase: past it the coordinator records a stall and re-sends \
             the phase message with bounded backoff. Default infinity \
             (watchdog off). 3v engine only.")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "fault-seed" ]
          ~doc:
            "Seed of the dedicated fault RNG — fault decisions never \
             perturb the workload or latency RNG streams.")
  in
  let run engine workload nodes replicas shards rate duration seed period
      nc_ratio read_ratio drop_prob dup_prob partitions crashes coord_crashes
      data_crashes phase_deadline fault_seed hb_period hb_timeout hb_losses =
    (* Shard flags gate before generator construction: the shard-aware
       generator itself validates divisibility with a raw exception. *)
    if shards < 1 then `Error (false, "--shards must be at least 1")
    else if shards > nodes || nodes mod shards <> 0 then
      `Error (false, "--shards must divide --nodes evenly")
    else if shards > 1 && engine <> E_3v then
      `Error (false, "--shards supports only --engine 3v")
    else if shards > 1 && workload <> W_synthetic then
      `Error
        ( false,
          "--shards > 1 requires --workload synthetic (the shard-aware \
           generator; other workloads emit cross-shard update trees the \
           engine rejects)" )
    else if shards > 1 && nc_ratio > 0. then
      `Error (false, "--shards > 1 requires --nc-ratio 0")
    else if shards > 1 && nodes / shards mod replicas <> 0 then
      `Error
        ( false,
          "--shards: each shard block (nodes/shards) must be a multiple of \
           --replicas" )
    else
    let gen =
      match workload with
      | W_hospital ->
          Workload.Hospital.generator
            {
              (Workload.Hospital.default ~nodes) with
              Workload.Hospital.arrival_rate = rate;
              read_ratio;
            }
      | W_calls ->
          Workload.Call_recording.generator
            {
              (Workload.Call_recording.default ~nodes) with
              Workload.Call_recording.arrival_rate = rate;
              read_ratio;
            }
      | W_pos ->
          Workload.Point_of_sale.generator
            {
              (Workload.Point_of_sale.default ~nodes) with
              Workload.Point_of_sale.arrival_rate = rate;
              read_ratio;
              nc_ratio;
            }
      | W_synthetic ->
          Workload.Synthetic.generator
            {
              (Workload.Synthetic.default ~nodes) with
              Workload.Synthetic.arrival_rate = rate;
              shards;
              read_ratio;
              nc_ratio;
            }
    in
    let setup =
      { Harness.Runner.default_setup with Harness.Runner.seed; duration; settle = 5.0 }
    in
    let has_faults =
      drop_prob > 0. || dup_prob > 0. || partitions <> [] || crashes <> []
      || coord_crashes <> [] || data_crashes <> [] || hb_losses <> []
    in
    match
      if has_faults && (engine = E_nocoord || engine = E_manual) then
        Error "fault-injection flags support only --engine 3v or 2pc"
      else if coord_crashes <> [] && engine <> E_3v then
        Error "--coord-crash supports only --engine 3v"
      else if replicas <> 1 && engine <> E_3v then
        Error "--replicas supports only --engine 3v"
      else if replicas < 1 || replicas > nodes then
        Error "--replicas must be in 1..nodes"
      else if replicas > 1 && nc_ratio > 0. then
        Error "--replicas > 1 requires --nc-ratio 0 (commuting core only)"
      else if data_crashes <> [] && replicas <= 1 then
        Error "--data-crash requires --replicas > 1"
      else if phase_deadline <> infinity && phase_deadline <= 0. then
        Error "--phase-deadline must be positive"
      else if hb_period < 0. then Error "--hb-period must be non-negative"
      else if hb_period > 0. && engine <> E_3v then
        Error "--hb-period supports only --engine 3v"
      else if hb_period > 0. && hb_timeout <= hb_period then
        Error "--hb-timeout must exceed --hb-period"
      else if hb_losses <> [] && hb_period <= 0. then
        Error "--hb-loss requires --hb-period > 0"
      else if not has_faults then Ok None
      else
        try
          let rules =
            (if drop_prob > 0. || dup_prob > 0. then
               Fault.Plan.uniform_loss ~dup:dup_prob ~drop:drop_prob ()
             else [])
            @ List.concat_map
                (function
                  | P_link (src, dst, from_, until_) ->
                      [ Fault.Plan.partition ~src ~dst ~from_ ~until_ ]
                  | P_set (set, from_, until_, oneway) ->
                      (* The engine's endpoint space is nodes + one
                         coordinator per shard at ids [nodes..nodes+S-1]
                         (S = 1 when unsharded). *)
                      Fault.Plan.partition_set ~universe:(nodes + shards) ~set
                        ~oneway ~from_ ~until_ ())
                partitions
            @ List.concat_map
                (fun (node, from_, until_, prob) ->
                  Fault.Plan.heartbeat_loss ~src:node ~prob ~from_ ~until_ ())
                hb_losses
          in
          let placement = Repl.Placement.create ~nodes ~replicas in
          let crashes =
            List.map
              (fun (node, at, restart) -> Fault.Plan.crash ~node ~at ~restart)
              crashes
            @ List.concat_map
                (fun (group, at, restart) ->
                  if group < 0 || group >= Repl.Placement.group_count placement
                  then
                    invalid_arg
                      (Printf.sprintf "--data-crash: group %d out of range"
                         group)
                  else
                    Fault.Plan.crash_replicas
                      ~members:(Repl.Placement.members placement group)
                      ~keep:1 ~at ~restart)
                data_crashes
          in
          let coord_crashes =
            List.map
              (fun (at, restart) -> Fault.Plan.coord_crash ~at ~restart)
              coord_crashes
          in
          Ok
            (Some
               (Fault.Plan.make ~seed:fault_seed ~rules ~crashes ~coord_crashes
                  ()))
        with Invalid_argument m -> Error m
    with
    | Error m -> `Error (false, m)
    | Ok plan ->
    let sim = Sim.create ~seed () in
    let faults = Option.map (Fault.Injector.create sim) plan in
    let packed, threev, extras =
      match engine with
      | E_3v ->
          let cfg =
            {
              (Engine.default_config ~nodes) with
              Engine.latency = Latency.Exponential 0.003;
              policy = Policy.Periodic period;
              nc_mode = nc_ratio > 0.;
              think_time = 0.0005;
              (* Any fault plan can drop or duplicate messages, so the
                 reliable channel comes on with it. *)
              reliable_channel = plan <> None;
              retransmit_timeout = 0.02;
              phase_deadline;
              replicas;
              shards;
              hb_period;
              hb_timeout;
              (* Matches the fuzz harness's replicated configuration, so
                 rendered reproducer lines replay the same routing. *)
            }
          in
          let eng = Engine.create sim cfg ?faults () in
          ( Engine.packed eng,
            Some eng,
            fun () ->
              Printf.printf "advancements: %d\nmax versions: %d\n"
                (Engine.advancements_completed eng)
                (Engine.max_versions_ever eng) )
      | E_2pc ->
          let cfg =
            {
              (Baselines.Global_2pc.default_config ~nodes) with
              Baselines.Global_2pc.latency = Latency.Exponential 0.003;
              think_time = 0.0005;
              deadlock_timeout = 0.05;
            }
          in
          ( Baselines.Global_2pc.packed
              (Baselines.Global_2pc.create ?faults sim cfg),
            None,
            fun () -> () )
      | E_nocoord ->
          let cfg =
            {
              (Baselines.No_coord.default_config ~nodes) with
              Baselines.No_coord.latency = Latency.Exponential 0.003;
              think_time = 0.0005;
            }
          in
          ( Baselines.No_coord.packed (Baselines.No_coord.create sim cfg),
            None,
            fun () -> () )
      | E_manual ->
          let cfg =
            {
              (Baselines.Manual_versioning.default_config ~nodes) with
              Baselines.Manual_versioning.latency = Latency.Exponential 0.003;
              think_time = 0.0005;
              period;
            }
          in
          ( Baselines.Manual_versioning.packed
              (Baselines.Manual_versioning.create sim cfg),
            None,
            fun () -> () )
    in
    let outcome = Harness.Runner.drive sim packed gen setup in
    let atom = Harness.Runner.atomicity outcome in
    let stale = Harness.Runner.staleness outcome in
    Printf.printf "engine: %s  workload: %s  nodes: %d  rate: %g/s\n"
      outcome.Harness.Runner.engine_name
      (Workload.Generator.name gen)
      nodes rate;
    Printf.printf
      "submitted: %d  committed: %d  aborted: %d  unfinished: %d  \
       throughput: %.0f/s\n"
      outcome.Harness.Runner.submitted outcome.Harness.Runner.committed outcome.Harness.Runner.aborted
      outcome.Harness.Runner.unfinished outcome.Harness.Runner.throughput;
    Format.printf "read latency:   %a@." Histogram.pp outcome.Harness.Runner.read_latency;
    Format.printf "update latency: %a@." Histogram.pp
      outcome.Harness.Runner.update_latency;
    Format.printf "atomicity: %a@." Checker.Atomicity.pp atom;
    Format.printf "staleness: %a@." Checker.Staleness.pp stale;
    extras ();
    Format.printf "engine counters: %a@." Stats.Counter_set.pp
      outcome.Harness.Runner.stats;
    (* Certify as fuzz does: publish every 3V update first, so replay sees
       the settled stores past garbage collection. *)
    Option.iter
      (fun eng ->
        let a1 = Engine.advance eng and a2 = Engine.advance eng in
        ignore (Sim.run sim ~until:(Sim.now sim +. 20.) ());
        ignore (Simul.Ivar.is_full a1 && Simul.Ivar.is_full a2))
      threev;
    let cert =
      Harness.Certify.run ?engine:threev
        ~unfinished:outcome.Harness.Runner.unfinished
        outcome.Harness.Runner.history
    in
    Format.printf "serializability: %a@." Checker.Serializability.pp
      cert.Harness.Certify.serializability;
    List.iter
      (fun (c : Harness.Certify.check) ->
        Printf.printf "check %s: %s\n" c.Harness.Certify.check_name
          (if c.Harness.Certify.ok then "ok"
           else "FAILED\n" ^ c.Harness.Certify.detail))
      cert.Harness.Certify.checks;
    (* Fuzz holds these engines to every check; a failure is exit 1. *)
    if (engine = E_3v || engine = E_2pc) && not (Harness.Certify.clean cert)
    then exit 1;
    `Ok ()
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ engine_arg $ workload_arg $ nodes_arg $ replicas_arg
       $ shards_arg $ rate_arg $ duration_arg $ seed_arg $ period_arg $ nc_arg $ read_arg
       $ drop_arg $ dup_arg $ partition_arg $ crash_arg $ coord_crash_arg
       $ data_crash_arg $ phase_deadline_arg $ fault_seed_arg $ hb_period_arg
       $ hb_timeout_arg $ hb_loss_arg))

(* ------------------------------------------------------------ fuzz *)

let fuzz_cmd =
  let doc =
    "Deterministic schedule fuzzing: sweep seeds × workloads × fault plans \
     × engines, certify every outcome with all offline checkers \
     (serializability, atomicity, version reads, replay), shrink failing \
     fault plans and print exact reproducer command lines. Strict engines \
     (3v, 3v-nc, 3v-repl, 2pc) must certify clean; the no-coordination and \
     manual baselines are expected to be flagged — that is the certifier's \
     positive control."
  in
  let runs_arg =
    Arg.(value & opt int 50 & info [ "runs" ] ~doc:"Number of cases to run.")
  in
  let fuzz_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "fuzz-seed" ]
          ~doc:
            "Master seed: case I of a sweep is a pure function of \
             (fuzz-seed, I), so any case replays exactly with --only.")
  in
  let only_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "only" ] ~docv:"INDEX"
          ~doc:"Run exactly one case index (an exact reproducer).")
  in
  let fuzz_quick_flag =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Shrink case durations for a sub-second sweep.")
  in
  let run runs fuzz_seed only quick =
    let summary =
      Harness.Fuzz.sweep ~runs ~fuzz_seed ?only ~quick ~log:print_endline ()
    in
    Format.printf "%a@." Harness.Fuzz.pp_summary summary;
    if Harness.Fuzz.ok summary then `Ok () else `Error (false, "fuzz failures")
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      ret (const run $ runs_arg $ fuzz_seed_arg $ only_arg $ fuzz_quick_flag))

(* ----------------------------------------------------------- lint *)

let lint_cmd =
  let doc =
    "Run the protocol-conformance & determinism static analyzer (rules \
     R1-R10) over lib/, bin/ and bench/. Exits non-zero on any non-waived \
     finding — or, with --baseline, on any finding not already in the \
     baseline report (the ratchet); the same gate runs inside `dune \
     runtest`."
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the machine-readable lint/v2 report.")
  in
  let rule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rule" ] ~docv:"ID"
          ~doc:"Restrict the report to one rule id (R1..R10).")
  in
  let root_arg =
    Arg.(
      value & opt string "."
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Repository root to scan (default: the current directory).")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Ratchet mode: fail only on findings absent from this committed \
             lint report (matched per occurrence on file/rule/message, so \
             pure line drift never fires). Old findings still print.")
  in
  let stale_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "check-stale" ] ~docv:"FILE"
          ~doc:
            "Fail when this committed report differs structurally from a \
             fresh run — the drift check that keeps the baseline honest.")
  in
  let read_file path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let read_report path =
    if not (Sys.file_exists path) then
      Error (Printf.sprintf "%s: no such file" path)
    else
      try Ok (Lint.Report.of_json (read_file path)) with
      | Lint.Report.Parse_error msg ->
          Error (Printf.sprintf "%s: not a lint report (%s)" path msg)
      | Sys_error msg -> Error msg
  in
  let run json rule root baseline stale =
    match rule with
    | Some r when not (List.mem_assoc r Lint.Rules.all) ->
        `Error
          ( false,
            Printf.sprintf "unknown rule %S (expected one of %s)" r
              (String.concat ", " (List.map fst Lint.Rules.all)) )
    | _ -> (
        let report = Lint.Driver.run ?rule ~root () in
        if json then print_endline (Lint.Report.to_json report)
        else Format.printf "%a" Lint.Report.render_human report;
        let stale_error =
          match stale with
          | None -> None
          | Some path -> (
              match read_report path with
              | Error e -> Some e
              | Ok committed ->
                  (* Structural comparison of the parsed documents: the
                     committed report must match a fresh full run (the
                     staleness leg ignores any --rule restriction). *)
                  let fresh =
                    if rule = None then report else Lint.Driver.run ~root ()
                  in
                  if
                    Lint.Report.json_of_string (Lint.Report.to_json fresh)
                    = Lint.Report.json_of_string (Lint.Report.to_json committed)
                  then None
                  else
                    Some
                      (Printf.sprintf
                         "%s is stale: it no longer matches a fresh run; \
                          refresh it with `threev_sim lint --json > %s`"
                         path path))
        in
        match stale_error with
        | Some e -> `Error (false, e)
        | None -> (
            match baseline with
            | None ->
                if Lint.Report.total report = 0 then `Ok ()
                else `Error (false, "lint findings")
            | Some path -> (
                match read_report path with
                | Error e -> `Error (false, e)
                | Ok base -> (
                    match
                      Lint.Report.diff
                        ~baseline:base.Lint.Report.findings
                        report.Lint.Report.findings
                    with
                    | [] -> `Ok ()
                    | fresh ->
                        if not json then begin
                          Format.printf
                            "lint: %d new finding%s not in baseline %s:@."
                            (List.length fresh)
                            (if List.length fresh = 1 then "" else "s")
                            path;
                          List.iter
                            (fun f ->
                              Format.printf "  %a@." Lint.Report.pp_finding f)
                            fresh
                        end;
                        `Error (false, "new lint findings")))))
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      ret (const run $ json_flag $ rule_arg $ root_arg $ baseline_arg
           $ stale_arg))

let () =
  let doc =
    "Reproduction of 'Scalable Versioning in Distributed Databases with \
     Commuting Updates' (ICDE 1997)."
  in
  let info = Cmd.info "threev_sim" ~version:"1.0.0" ~doc in
  (* Fault-spec flags fail fast, before cmdliner: one self-contained line
     on stderr and the conventional usage-error status 2 (cmdliner's own
     converter failure prints a four-line block and exits 124, which CI
     harnesses misread as a timeout). *)
  (match Cli_specs.prevalidate Sys.argv with
  | Some msg ->
      prerr_endline ("threev_sim: " ^ msg);
      exit 2
  | None -> ());
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; experiment_cmd; table1_cmd; trace_cmd; run_cmd; fuzz_cmd;
            lint_cmd;
          ]))
