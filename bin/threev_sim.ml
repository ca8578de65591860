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
module Scenario = Harness.Scenario
module Runner = Harness.Runner
module Certify = Harness.Certify
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

let run_cmd =
  let doc =
    "Run a single engine × workload simulation, print a report and certify \
     the history as fuzz does; exits 1 when a 3v or 2pc run fails a check."
  in
  let run (sc : Scenario.t) =
    match Scenario.validate sc with
    | Error m -> `Error (false, m)
    | Ok () ->
        let d = Scenario.run sc in
        let outcome = d.Scenario.outcome in
        Printf.printf "engine: %s  workload: %s  nodes: %d  rate: %g/s\n"
          outcome.Runner.engine_name
          (Workload.Generator.name (Scenario.generator sc))
          sc.nodes sc.rate;
        Printf.printf
          "submitted: %d  committed: %d  aborted: %d  unfinished: %d  \
           throughput: %.0f/s\n"
          outcome.Runner.submitted outcome.Runner.committed
          outcome.Runner.aborted outcome.Runner.unfinished
          outcome.Runner.throughput;
        Format.printf "read latency:   %a@." Histogram.pp
          outcome.Runner.read_latency;
        Format.printf "update latency: %a@." Histogram.pp
          outcome.Runner.update_latency;
        Format.printf "atomicity: %a@." Checker.Atomicity.pp
          (Runner.atomicity outcome);
        Format.printf "staleness: %a@." Checker.Staleness.pp
          (Runner.staleness outcome);
        Option.iter
          (fun eng ->
            Printf.printf "advancements: %d\nmax versions: %d\n"
              (Engine.advancements_completed eng)
              (Engine.max_versions_ever eng))
          d.Scenario.engine;
        Format.printf "engine counters: %a@." Stats.Counter_set.pp
          outcome.Runner.stats;
        let cert = Scenario.certify d in
        Format.printf "serializability: %a@." Checker.Serializability.pp
          cert.Certify.serializability;
        List.iter
          (fun (c : Certify.check) ->
            Printf.printf "check %s: %s\n" c.Certify.check_name
              (if c.Certify.ok then "ok"
               else "FAILED\n" ^ c.Certify.detail))
          cert.Certify.checks;
        (* Fuzz holds these engines to every check; a failure is exit 1. *)
        if
          (sc.engine = Scenario.E3v || sc.engine = E2pc)
          && not (Certify.clean cert)
        then exit 1;
        `Ok ()
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(ret (const run $ Cli_specs.run_term))

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
