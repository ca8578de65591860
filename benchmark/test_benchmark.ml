(* Unit tests of the benchmark's own logic: the percentile, the frame-to-layer
   classifier, and that the metrics a run produces are exactly the ones the
   benchmark description (path given as the first argument) declares. *)

open Bench_core

(* Model: the smallest sample with at least q/1000 of the samples at or
   below it. *)
let model_quantile xs q =
  let sorted = List.sort Float.compare xs in
  let n = List.length xs in
  List.find (fun v -> 1000 * List.length (List.filter (fun x -> x <= v) xs) >= q * n) sorted

let quantile_matches_model =
  QCheck.Test.make ~count:500 ~name:"nearest rank = sorted-list model"
    QCheck.(pair (list_of_size Gen.(1 -- 300) (float_bound_inclusive 100.)) (int_range 1 1000))
    (fun (xs, q) -> Probe.nearest_rank (Probe.sorted xs) q = model_quantile xs q)

let test_percentile_examples () =
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  let xs = Array.to_list a in
  Alcotest.(check (float 0.)) "p50 of 1..1000" 500. (Probe.percentile xs 50);
  Alcotest.(check (float 0.)) "p99 of 1..1000" 990. (Probe.percentile xs 99);
  Alcotest.(check (float 0.)) "p99.9 of 1..1000" 999. (Probe.nearest_rank a 999);
  Alcotest.(check (float 0.)) "p100 of 1..1000" 1000. (Probe.nearest_rank a 1000);
  Alcotest.(check (float 0.)) "p99.9 of one sample" 7. (Probe.nearest_rank [| 7. |] 999)

let test_classifier () =
  let check name expected frames =
    Alcotest.(check string) name expected (Sampler.classify frames)
  in
  let stdlib = ("stdlib.ml", "Stdlib.compare") and hashtbl = ("hashtbl.ml", "Stdlib__Hashtbl.find") in
  let drive = ("lib/harness/runner.ml", "Harness__Runner.drive") in
  let bench = ("benchmark/probe.ml", "Bench_core__Probe.drive") in
  check "heap pop is the kernel" "simul" [ ("lib/simul/heap.ml", "Simul__Heap.pop"); drive; bench ];
  check "stdlib counts toward its caller" "store"
    [ hashtbl; ("lib/store/mvstore.ml", "Store__Mvstore.write"); ("lib/core/engine.ml", "Threev__Engine.execute") ];
  check "counters.ml is counters" "counters"
    [ ("lib/core/counters.ml", "Threev__Counters.snapshot");
      ("lib/core/engine.ml", "Threev__Engine.poll_counters") ];
  check "core under a coordinator fiber is coord" "coord"
    [ stdlib; ("lib/core/vwindow.ml", "Threev__Vwindow.get");
      ("lib/core/engine.ml", "Threev__Engine.run_advancement.(fun)");
      ("lib/core/engine.ml", "Threev__Engine.coordinator_loop") ];
  check "core elsewhere is engine" "engine"
    [ ("lib/core/engine.ml", "Threev__Engine.handle_msg"); ("lib/simul/sim.ml", "Simul__Sim.run") ];
  check "a coordinator name outside engine.ml is not coord" "engine"
    [ ("lib/core/engine.ml", "Threev__Engine.node_loop"); ("lib/net/reliable.ml", "Netsim__Reliable.await_acks") ];
  check "network" "net" [ ("lib/net/network.ml", "Netsim__Network.send"); drive ];
  check "no lib frame is other" "other" [ stdlib; bench ];
  check "a library outside the layers is other" "other" [ ("lib/lint/rules.ml", "Lint__Rules.run") ]

(* Every sample lands in exactly one of [Sampler.layers], so the shares sum
   to 1 by construction. *)
let classify_within_layers =
  let files =
    [ "lib/core/engine.ml"; "lib/core/counters.ml"; "lib/core/vwindow.ml"; "lib/simul/sim.ml";
      "lib/net/network.ml"; "lib/store/mvstore.ml"; "lib/shard/rvector.ml"; "lib/fd/detector.ml";
      "lib/lint/rules.ml"; "lib/x.ml"; "lib"; "stdlib.ml"; "benchmark/probe.ml"; "" ]
  in
  let fns = "Threev__Engine.helper" :: Sampler.coord_functions in
  QCheck.Test.make ~count:500 ~name:"every sample goes to a listed layer"
    QCheck.(list_of_size Gen.(0 -- 6) (pair (oneofl files) (oneofl fns)))
    (fun frames -> List.mem (Sampler.classify frames) Sampler.layers)

(* A tiny sharded, replicated-free run through every measurement the
   benchmark makes, so every metric is produced once. *)
let test_metric_names spec () =
  let w =
    { (Option.get (Workloads.find "reads-xshard")) with
      Workloads.nodes = 8; shards = 2; rate = 400.; duration = 0.3 }
  in
  let build ?link_latency () = Workloads.build ?link_latency ~seed:3 ~scale:0.5 w in
  let d, inst, outcome = Probe.drive build in
  let checks = Probe.checks inst outcome in
  let traced =
    Probe.traced ~build:(fun ~link_latency -> build ~link_latency ()) ~nodes:w.nodes
      ~min_samples:0 ~max_drives:1
  in
  let e2e = Metrics.end_to_end ~reps:[ d ] ~checks in
  let layer = Metrics.per_layer ~reps:[ d ] ~checks ~traced in
  Alcotest.(check (list string)) "end-to-end metrics" []
    (Metrics.mismatches (Metrics.declared spec "end_to_end") e2e);
  Alcotest.(check (list string)) "per-layer metrics" []
    (Metrics.mismatches (Metrics.declared spec "per_layer") layer);
  Alcotest.(check (list string)) "checkers clean" [] checks.Probe.problems;
  Alcotest.(check int) "traced history equals untraced" d.Probe.digest
    (List.hd traced.Probe.t_digests)

let () =
  let spec = Json.read_file Sys.argv.(1) in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "benchmark"
    [
      ( "percentile",
        [ Alcotest.test_case "examples" `Quick test_percentile_examples;
          QCheck_alcotest.to_alcotest quantile_matches_model ] );
      ( "classifier",
        [ Alcotest.test_case "frames to layers" `Quick test_classifier;
          QCheck_alcotest.to_alcotest classify_within_layers ] );
      ("metrics", [ Alcotest.test_case "names match the description" `Quick (test_metric_names spec) ]);
    ]
