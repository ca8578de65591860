(* Bechamel micro-benchmarks: one Test.make per experiment family,
   measuring the wall-clock cost of the underlying machinery (engine steps,
   store writes, counter polls, checker passes) so regressions in the
   substrate show up independently of the simulated results. Run with
   `dune exec bench/main.exe`. The end-to-end benchmark lives in
   benchmark/ (BENCHMARK.json); the experiments run through
   `threev_sim experiment <id>`. *)

module Sim = Simul.Sim
module Engine = Threev.Engine
module Mvstore = Store.Mvstore
module Value = Txn.Value
module Lockmgr = Txn.Lockmgr
open Bechamel
open Toolkit

(* ------------------------------------------------- micro-benchmarks *)

(* T1 family: a complete scripted protocol replay, advancement included. *)
let bench_table1 =
  Test.make ~name:"t1: table1 full replay"
    (Staged.stage (fun () -> ignore (Harness.Table1.run ())))

(* E1 family: a small end-to-end 3V run (4 nodes, 200 transactions). *)
let bench_small_run =
  Test.make ~name:"e1: 3v 4-node 200-txn run"
    (Staged.stage (fun () ->
         let sim = Sim.create ~seed:9 () in
         let engine =
           Engine.create sim
             {
               (Engine.default_config ~nodes:4) with
               Engine.policy = Threev.Policy.Periodic 0.1;
             }
             ()
         in
         let gen =
           Workload.Synthetic.generator
             {
               (Workload.Synthetic.default ~nodes:4) with
               Workload.Synthetic.arrival_rate = 400.;
             }
         in
         ignore
           (Harness.Runner.drive sim (Engine.packed engine) gen
              {
                Harness.Runner.seed = 9;
                duration = 0.5;
                settle = 2.0;
                max_txns = 200;
              })))

(* E2 family: versioned-store write path (copy-on-update + upward write). *)
let bench_store_write =
  let store = Mvstore.create () in
  let i = ref 0 in
  Test.make ~name:"e2: mvstore write_upward"
    (Staged.stage (fun () ->
         incr i;
         ignore
           (Mvstore.write_upward store
              ~key:(Printf.sprintf "k%d" (!i land 1023))
              ~version:1 ~init:Value.empty
              ~f:(Value.incr ~txn:!i ~delta:1.))))

(* E4 family: counter-table snapshot, the unit of a coordinator poll. *)
let bench_counter_poll =
  let cnt = Threev.Counters.create ~nodes:16 in
  let () =
    for v = 1 to 2 do
      for dst = 0 to 15 do
        Threev.Counters.incr_r cnt ~version:v ~dst
      done
    done
  in
  Test.make ~name:"e4: counter snapshot (16 nodes)"
    (Staged.stage (fun () ->
         ignore (Threev.Counters.snapshot_r cnt ~version:1);
         ignore (Threev.Counters.snapshot_c cnt ~version:1)))

(* E5 family: lock manager acquire/release round for commute locks. *)
let bench_lockmgr =
  let sim = Sim.create () in
  let locks = Lockmgr.create sim () in
  let i = ref 0 in
  Test.make ~name:"e5: commute lock acquire+release"
    (Staged.stage (fun () ->
         incr i;
         ignore
           (Lockmgr.acquire locks ~owner:!i ~key:"hot"
              ~mode:Lockmgr.Commute_update ());
         Lockmgr.release_all locks ~owner:!i))

(* Shared history for the checker benchmarks, generated once. *)
let checker_history =
  lazy
    (let sim = Sim.create ~seed:4 () in
     let engine =
       Engine.create sim
         {
           (Engine.default_config ~nodes:4) with
           Engine.policy = Threev.Policy.Periodic 0.2;
         }
         ()
     in
     let gen =
       Workload.Hospital.generator
         {
           (Workload.Hospital.default ~nodes:4) with
           Workload.Hospital.arrival_rate = 600.;
         }
     in
     (Harness.Runner.drive sim (Engine.packed engine) gen
        { Harness.Runner.seed = 4; duration = 1.0; settle = 3.0; max_txns = 1000 })
       .Harness.Runner.history)

(* F1 family: the atomic-visibility checker over a realistic history. *)
let bench_checker =
  Test.make ~name:"f1: atomicity check (1k txns)"
    (Staged.stage (fun () ->
         ignore (Checker.Atomicity.check (Lazy.force checker_history))))

(* E3/E8 family: staleness measurement over the same history. *)
let bench_staleness =
  Test.make ~name:"e3: staleness measure (1k txns)"
    (Staged.stage (fun () ->
         ignore (Checker.Staleness.measure (Lazy.force checker_history))))

(* E6/E7 family: the simulation kernel itself. *)
let bench_sim_kernel =
  Test.make ~name:"e7: sim kernel 5k events"
    (Staged.stage (fun () ->
         let sim = Sim.create () in
         for i = 1 to 100 do
           Sim.spawn sim ~name:(string_of_int i) (fun () ->
               for _ = 1 to 50 do
                 Sim.sleep sim 0.001
               done)
         done;
         ignore (Sim.run sim ())))

let micro_tests =
  [
    bench_table1; bench_small_run; bench_store_write; bench_counter_poll;
    bench_lockmgr; bench_checker; bench_staleness; bench_sim_kernel;
  ]

let run_micro () =
  print_endline "## Micro-benchmarks (Bechamel, monotonic clock)\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10)
      ~stabilize:false ()
  in
  let table =
    Stats.Table.create ~title:"micro-benchmarks"
      ~columns:[ "benchmark"; "time/run"; "r^2" ]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      (* Rows sorted by benchmark name: bechamel hands results back in a
         hash table, and the report order must not depend on its layout. *)
      Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc)
        analyzed []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (name, ols_result) ->
             let time_ns =
               match Analyze.OLS.estimates ols_result with
               | Some (t :: _) -> t
               | Some [] | None -> Float.nan
             in
             let r2 =
               match Analyze.OLS.r_square ols_result with
               | Some r -> Printf.sprintf "%.4f" r
               | None -> "n/a"
             in
             let pretty =
               if time_ns >= 1e9 then Printf.sprintf "%.3f s" (time_ns /. 1e9)
               else if time_ns >= 1e6 then
                 Printf.sprintf "%.3f ms" (time_ns /. 1e6)
               else if time_ns >= 1e3 then
                 Printf.sprintf "%.3f us" (time_ns /. 1e3)
               else Printf.sprintf "%.1f ns" time_ns
             in
             Stats.Table.add_row table [ name; pretty; r2 ]))
    micro_tests;
  Stats.Table.print table

let () =
  (* A large minor heap and a relaxed major space overhead keep the
     allocation-heavy simulator out of the GC on the measured path. *)
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024; space_overhead = 200 };
  run_micro ()
