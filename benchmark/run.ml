(* The benchmark command. For each selected workload it runs, each in its own
   forked child so memory peaks belong to one measurement:

   - untraced drives until [--seconds] of drive wall time and at least three
     drives are in, each timing its own cold set-up (simulation, injector,
     engine and generator) too; the first also runs the checkers;
   - one traced child (the stack sampler, timed make/submit wrappers and a
     counting link-latency hook) for the per-layer metrics.

   It prints every metric as "<workload> <metric> <value> <unit>", then, when
   one workload was asked for, a JSON summary as the last line. It exits 1 if
   a gate fails: a checker is not clean, more than three versions of an item
   existed, a transaction aborted or never finished, the median update
   blocked for longer than the think time, two drives of one seed produced
   different histories, the traced history differs from the untraced one,
   the traced run took too few samples, or the metrics differ from those
   BENCHMARK.json names. *)

open Bench_core

type mode = End_to_end | Per_layer | Both

let workloads = ref []
let seed = ref 1
let seconds = ref 0.
let trace = ref None
let smoke = ref false
let spec_path = ref "BENCHMARK.json"

let args =
  [
    ( "--workload",
      Arg.String (fun w -> workloads := !workloads @ [ w ]),
      "NAME  run this workload only (repeatable; default all five)" );
    ("--seed", Arg.Set_int seed, "N  seed for the simulation, arrivals and faults (default 1)");
    ( "--seconds",
      Arg.Set_float seconds,
      "S  keep repeating untraced drives until S wall seconds of drive (default 0: three drives)"
    );
    ( "--trace",
      Arg.Int (fun t -> trace := Some t),
      "0|1  0: end-to-end metrics only; 1: per-layer metrics only (default both)" );
    ("--smoke", Arg.Set smoke, " every workload at 1/20 scale with every gate; prints one line each");
    ("--spec", Arg.Set_string spec_path, "FILE  the benchmark description (default BENCHMARK.json)");
  ]

let usage = "run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--spec FILE]"

let die msg =
  prerr_endline ("benchmark: " ^ msg);
  exit 2

let read_spec path =
  match Json.read_file path with
  | j -> (Metrics.declared j "end_to_end", Metrics.declared j "per_layer")
  | exception Sys_error e -> die e
  | exception Json.Error e -> die (path ^ ": " ^ e)

type result = {
  metrics : Metrics.t list;
  problems : string list;
  attempted : int;
  failed : int;
  top : (string * string * int) list;
}

let measure ~mode ~declared (w : Workloads.t) =
  let scale = if !smoke then 0.05 else 1. in
  let build ?link_latency () = Workloads.build ?link_latency ~seed:!seed ~scale w in
  let child f =
    match Probe.in_child f with Ok x -> x | Error e -> failwith (w.name ^ ": " ^ e)
  in
  let first, checks =
    child (fun () ->
        let d, inst, outcome = Probe.drive build in
        (d, Probe.checks inst outcome))
  in
  let min_reps = if !smoke then 2 else 3 in
  let rec more reps total =
    if List.length reps >= min_reps && total >= !seconds then List.rev reps
    else
      let d = child (fun () -> let d, _, _ = Probe.drive build in d) in
      more (d :: reps) (total +. d.Probe.time.Speed.wall_s)
  in
  let reps = more [ first ] first.Probe.time.Speed.wall_s in
  let traced =
    if mode = End_to_end then None
    else
      Some
        (child (fun () ->
             Probe.traced
               ~build:(fun ~link_latency -> build ~link_latency ())
               ~nodes:w.nodes
               ~min_samples:(if !smoke then 0 else 1000)
               ~max_drives:(if !smoke then 1 else 3)))
  in
  let e2e, layer = declared in
  let e = if mode = Per_layer then [] else Metrics.end_to_end ~reps ~checks in
  let l =
    match traced with None -> [] | Some traced -> Metrics.per_layer ~reps ~checks ~traced
  in
  let problems =
    checks.Probe.problems
    @ (if mode = Per_layer then [] else Metrics.mismatches e2e e)
    @ (if mode = End_to_end then [] else Metrics.mismatches layer l)
    @ List.filter_map
        (fun (bad, msg) -> if bad then Some msg else None)
        ([
           (first.max_versions > 3, Printf.sprintf "%d versions of one item" first.max_versions);
           (first.failed > 0, Printf.sprintf "%d transactions failed" first.failed);
           (* The paper's claim: an update's submitter never waits on remote
              work, so the median update blocks for the think time alone. *)
           ( not (Float.abs (first.update_block.p50_ms -. (1000. *. Workloads.think_time)) < 1e-6),
             Printf.sprintf "the median update blocked for %g ms, not the %g ms think time"
               first.update_block.p50_ms (1000. *. Workloads.think_time) );
           ( List.exists (fun (d : Probe.drive) -> d.digest <> first.digest) reps,
             "drives of one seed produced different histories" );
         ]
        @
        match traced with
        | None -> []
        | Some t ->
            [
              ( List.exists (fun d -> d <> first.digest) t.Probe.t_digests,
                "the traced history differs from the untraced one" );
              ( (not !smoke) && t.stacks_profile.samples < 1000,
                Printf.sprintf "only %d stack samples" t.stacks_profile.samples );
            ])
  in
  {
    metrics = e @ l;
    problems;
    attempted = List.fold_left (fun a (d : Probe.drive) -> a + d.submitted) 0 reps;
    failed = List.fold_left (fun a (d : Probe.drive) -> a + d.failed) 0 reps;
    top = (match traced with Some t -> t.stacks_profile.top | None -> []);
  }

let json_summary r =
  let metric (x : Metrics.t) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.problems = []) r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let mode =
    match !trace with
    | None -> Both
    | Some 0 -> End_to_end
    | Some 1 -> Per_layer
    | Some t -> die (Printf.sprintf "--trace must be 0 or 1, not %d" t)
  in
  let mode = if !smoke then Both else mode in
  let selected =
    match !workloads with
    | [] -> Workloads.all
    | names ->
        List.map
          (fun n ->
            match Workloads.find n with
            | Some w -> w
            | None -> die ("unknown workload " ^ n))
          names
  in
  let declared = read_spec !spec_path in
  let ok =
    List.fold_left
      (fun ok (w : Workloads.t) ->
        let t0 = Unix.gettimeofday () in
        let r = measure ~mode ~declared w in
        if !smoke then
          Printf.printf "benchmark smoke: %s %s (%d txns, %.2fs)\n%!" w.name
            (if r.problems = [] then "ok" else "FAILED")
            r.attempted
            (Unix.gettimeofday () -. t0)
        else begin
          List.iter
            (fun (x : Metrics.t) ->
              Printf.printf "%s %s %.6g %s%s\n" w.name x.name x.value x.unit_
                (if x.note = "" then "" else " " ^ x.note))
            r.metrics;
          List.iteri
            (fun i (fn, file, n) -> Printf.printf "# %s top%d %s %d samples %s\n" w.name (i + 1) fn n file)
            r.top
        end;
        List.iter (fun p -> Printf.eprintf "benchmark: %s: FAILED: %s\n%!" w.name p) r.problems;
        if List.length selected = 1 && not !smoke then print_endline (json_summary r);
        ok && r.problems = [])
      true selected
  in
  exit (if ok then 0 else 1)
