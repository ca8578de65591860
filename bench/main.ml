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

(* E2 family: versioned-store write path (copy-on-update + upward write),
   a commuting increment to one of 1,024 pre-rendered keys. Every 64th
   round of the keys writes each key a fresh value, so no key holds more
   than 64 writer tags and the time per run does not drift with run
   length. *)
let bench_store_write =
  let keys = Array.init 1024 (fun i -> Store.Key.intern (Printf.sprintf "k%d" i)) in
  let store = Mvstore.create () in
  let i = ref 0 in
  Test.make ~name:"e2: mvstore write_upward"
    (Staged.stage (fun () ->
         incr i;
         let txn = !i in
         let f =
           if (txn lsr 10) land 63 = 0 then fun _ -> Value.incr ~txn ~delta:1. Value.empty
           else Value.incr ~txn ~delta:1.
         in
         Mvstore.write_upward store ~key:keys.(txn land 1023) ~version:1 ~init:Value.empty
           ~f))

(* E2 family: one hot key's writer tags taking the next id, as every
   commuting write to it does; the tags start over every 1,024 adds. *)
let bench_writer_tag_add =
  let tags = ref Value.Writers.empty and i = ref 0 in
  Test.make ~name:"e2: writer-tag add (one hot key, in-order ids)"
    (Staged.stage (fun () ->
         incr i;
         if !i land 1023 = 0 then tags := Value.Writers.empty;
         tags := Value.Writers.add !i !tags))

(* E2 family: phase-4 GC over 4k items, 64 of them given a new version
   before each GC, as the engine's writes do between advancements. *)
let bench_store_gc =
  let store = Mvstore.create () in
  let keys = Array.init 4096 (fun i -> Store.Key.intern (Printf.sprintf "k%d" i)) in
  Array.iter
    (fun key -> Mvstore.write_upward store ~key ~version:0 ~init:0 ~f:succ)
    keys;
  let version = ref 0 in
  Test.make ~name:"e2: mvstore gc (4k items, 64 multi-version)"
    (Staged.stage (fun () ->
         incr version;
         for i = 0 to 63 do
           Mvstore.write_upward store ~key:keys.(i * 64) ~version:!version ~init:0 ~f:succ
         done;
         Mvstore.gc store ~new_read_version:!version))

(* E4 family: one coordinator poll round over a 512-member shard, as the
   engine runs it: every member's sparse R row and C column folded into a
   round, then the settled and stable decisions. Each member has requests
   open to two peers, all of them balanced, so the decisions read every
   entry. *)
let bench_counter_poll =
  let m = 512 in
  let census = Threev.Counters.census () in
  let tables = Array.init m (fun _ -> Threev.Counters.create ~census ~nodes:m) in
  for p = 0 to m - 1 do
    List.iter
      (fun q ->
        Threev.Counters.incr_r tables.(p) ~version:1 ~dst:q;
        Threev.Counters.incr_c tables.(q) ~version:1 ~src:p)
      [ (p + 1) mod m; ((7 * p) + 3) mod m ]
  done;
  let fold (rd : Repl.Quorum.round) =
    Array.iteri
      (fun i cnt ->
        rd.rows.(i) <- Threev.Counters.sparse_r cnt ~version:1;
        rd.cols.(i) <- Threev.Counters.sparse_c cnt ~version:1)
      tables
  in
  let prev = Repl.Quorum.round m and cur = Repl.Quorum.round m in
  Array.fill prev.replied 0 m true;
  Array.fill cur.replied 0 m true;
  fold prev;
  Test.make ~name:"e4: counter poll round (512 members)"
    (Staged.stage (fun () ->
         fold cur;
         ignore (Repl.Quorum.settled cur && Repl.Quorum.stable prev cur)))

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

(* E6/E7 family: the simulation kernel itself, on the engine's mix of
   events, 60% at the current instant and 40% timed. 25 pairs of processes
   play 10 rounds of mailbox ping-pong; a round wakes both receivers and
   yields once, then each player sleeps four times. A sleep is a timed
   event plus its same-instant resume and a yield two same-instant events,
   so a round is 12 same-instant events and 8 timed ones. *)
let bench_sim_kernel =
  Test.make ~name:"e7: sim kernel 5k events"
    (Staged.stage (fun () ->
         let sim = Sim.create () in
         let nap () =
           for _ = 1 to 4 do
             Sim.sleep sim 0.001
           done
         in
         for _ = 1 to 25 do
           let ping = Simul.Mailbox.create () and pong = Simul.Mailbox.create () in
           Sim.spawn sim (fun () ->
               for i = 1 to 10 do
                 Simul.Mailbox.send ping i;
                 ignore (Simul.Mailbox.recv sim pong : int);
                 Sim.yield sim;
                 nap ()
               done);
           Sim.spawn sim (fun () ->
               for i = 1 to 10 do
                 ignore (Simul.Mailbox.recv sim ping : int);
                 Simul.Mailbox.send pong i;
                 nap ()
               done)
         done;
         ignore (Sim.run sim ())))

(* E11 family: the reliable channel under loss. Node 0 sends 5k acked
   messages to node 1, eight every half millisecond, over 2 ms links that
   lose 5% of copies (acks included); retransmission is on, so the run
   covers sequencing, acks, dedup, retransmit timers and ack-floor
   pruning. *)
let bench_reliable =
  Test.make ~name:"e11: reliable channel (5k acked msgs, 5% loss)"
    (Staged.stage (fun () ->
         let sim = Sim.create ~seed:11 () in
         let net =
           Netsim.Network.create sim ~size:2 ~latency:(Netsim.Latency.Exponential 0.002) ()
         in
         let rng = Random.State.make [| 11 |] in
         Netsim.Network.set_filter net (fun ~src:_ ~dst:_ ~delay ->
             if Random.State.float rng 1. < 0.05 then [] else [ delay ]);
         let ch =
           Netsim.Reliable.create
             ~config:
               { Netsim.Reliable.default_config with Netsim.Reliable.acks = true; timeout = 0.02 }
             net
         in
         for node = 0 to 1 do
           Sim.spawn sim ~daemon:true (fun () ->
               let rec loop () =
                 ignore (Netsim.Reliable.recv ch ~node : int);
                 loop ()
               in
               loop ())
         done;
         Sim.spawn sim (fun () ->
             for i = 1 to 5000 do
               Netsim.Reliable.send ch ~src:0 ~dst:1 i;
               if i land 7 = 0 then Sim.sleep sim 0.0005
             done);
         ignore (Sim.run sim ())))

let micro_tests =
  [
    bench_table1; bench_small_run; bench_store_write; bench_writer_tag_add; bench_store_gc;
    bench_counter_poll; bench_lockmgr; bench_checker; bench_staleness;
    bench_sim_kernel; bench_reliable;
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
