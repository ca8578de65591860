(* Tests for the replication subsystem (lib/repl) and its engine
   integration: placement arithmetic, quorum poll rules, the
   readable-after-recovery gate, quorum advancement with k-1 replicas of a
   group down, deterministic read failover, the per-(seq,dst) delivery
   accounting regression, a k=1 golden digest proving replication-off runs
   stay byte-identical, and a bounded-exhaustive sweep crashing each
   replica of a group inside each advancement phase. *)

module Sim = Simul.Sim
module Ivar = Simul.Ivar
module Network = Netsim.Network
module Latency = Netsim.Latency
module Placement = Repl.Placement
module Quorum = Repl.Quorum
module Recovery = Repl.Recovery
module Plan = Fault.Plan
module Injector = Fault.Injector
module Engine = Threev.Engine
module Policy = Threev.Policy
module Runner = Harness.Runner
module Spec = Txn.Spec
module Result = Txn.Result
module Counter_set = Stats.Counter_set
module Explorer = Mcheck.Explorer

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --------------------------------------------------------- placement *)

let placement_groups () =
  let p = Placement.create ~nodes:6 ~replicas:3 in
  checki "6/3 -> 2 groups" 2 (Placement.group_count p);
  checkb "group 0 members" true (Placement.members p 0 = [ 0; 1; 2 ]);
  checkb "group 1 members" true (Placement.members p 1 = [ 3; 4; 5 ]);
  checki "node 4 in group 1" 1 (Placement.group_of_node p 4);
  checkb "peers of 1" true (Placement.peers p 1 = [ 0; 2 ]);
  (* Uneven split: the last group absorbs the remainder. *)
  let q = Placement.create ~nodes:7 ~replicas:3 in
  checki "7/3 -> 3 groups" 3 (Placement.group_count q);
  checkb "tail group is the remainder" true (Placement.members q 2 = [ 6 ]);
  (* k = 1 degenerates to singleton groups. *)
  let s = Placement.create ~nodes:4 ~replicas:1 in
  checki "singletons" 4 (Placement.group_count s);
  checkb "singleton member" true (Placement.members s 2 = [ 2 ]);
  checkb "no peers" true (Placement.peers s 2 = [])

let placement_validation () =
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  checkb "replicas = 0 rejected" true
    (raises (fun () -> Placement.create ~nodes:3 ~replicas:0));
  checkb "replicas > nodes rejected" true
    (raises (fun () -> Placement.create ~nodes:3 ~replicas:4))

let placement_failover_order () =
  let p = Placement.create ~nodes:6 ~replicas:3 in
  checkb "order rotates to start at the home node" true
    (Placement.failover_order p 4 = [ 4; 5; 3 ]);
  checkb "primary first" true (Placement.failover_order p 0 = [ 0; 1; 2 ]);
  (* serving_replica walks the order, skipping dead nodes. *)
  let live = function 0 | 1 -> false | _ -> true in
  checkb "skips dead replicas" true
    (Placement.serving_replica p ~live 0 = Some 2);
  checkb "whole group down -> None" true
    (Placement.serving_replica p ~live:(fun _ -> false) 0 = None)

let placement_key_deterministic () =
  let p = Placement.create ~nodes:6 ~replicas:3 in
  List.iter
    (fun key ->
      checki
        (Printf.sprintf "key %S stable" key)
        (Placement.group_of_key p key)
        (Placement.group_of_key p key);
      let home = Placement.home_of_key p key in
      checkb "home is its group's first member" true
        (match Placement.members p (Placement.group_of_key p key) with
        | first :: _ -> first = home
        | [] -> false))
    [ "k0"; "k1"; "patient:42"; ""; "a-rather-long-key-name" ];
  (* The hash is a pure function of the bytes, not of any table state. *)
  checki "fnv hash stable" (Placement.key_hash "abc") (Placement.key_hash "abc");
  checkb "fnv hash spreads" true
    (Placement.key_hash "abc" <> Placement.key_hash "abd")

(* ------------------------------------------------------------ quorum *)

let quorum_rules () =
  let p = Placement.create ~nodes:6 ~replicas:3 in
  let live_except dead i = not (List.mem i dead) in
  checkb "all live -> met" true (Quorum.met p ~live:(live_except []));
  checkb "k-1 down -> still met" true
    (Quorum.met p ~live:(live_except [ 0; 1 ]));
  checkb "whole group down -> not met" true
    (not (Quorum.met p ~live:(live_except [ 0; 1; 2 ])));
  checkb "dead groups listed" true
    (Quorum.dead_groups p ~live:(live_except [ 0; 1; 2 ]) = [ 0 ]);
  checkb "no dead groups when met" true
    (Quorum.dead_groups p ~live:(live_except [ 0; 4 ]) = []);
  (* required = live nodes, plus every member of a fully-dead group. *)
  let req = Quorum.required p ~live:(live_except [ 0; 1 ]) in
  checkb "crashed minority not required" true
    (not req.(0) && not req.(1) && req.(2));
  let req_dead = Quorum.required p ~live:(live_except [ 3; 4; 5 ]) in
  checkb "fully-dead group still required" true
    (req_dead.(3) && req_dead.(4) && req_dead.(5))

let quorum_matrices_agree () =
  let a = [| [| 1; 2 |]; [| 3; 4 |] |] in
  let b = [| [| 1; 2 |]; [| 9; 4 |] |] in
  checkb "differ on a considered pair" true
    (not (Quorum.matrices_agree ~considered:[| true; true |] a b));
  checkb "difference at an excused row is ignored" true
    (Quorum.matrices_agree ~considered:[| true; false |] a b);
  checkb "equal matrices agree" true
    (Quorum.matrices_agree ~considered:[| true; true |] a a)

(* ---------------------------------------------------------- recovery *)

let recovery_gate () =
  let r = Recovery.create () in
  checkb "unmarked node is readable" true (Recovery.readable r ~node:0 ~vr:0);
  Recovery.mark r ~node:1 ~frontier:3;
  checkb "armed gate blocks a stale vr" true
    (not (Recovery.readable r ~node:1 ~vr:2));
  checkb "frontier recorded" true (Recovery.frontier r ~node:1 = Some 3);
  (* A re-crash keeps the highest frontier. *)
  Recovery.mark r ~node:1 ~frontier:2;
  checkb "repeated mark keeps the max" true
    (Recovery.frontier r ~node:1 = Some 3);
  checkb "gate opens at the frontier" true (Recovery.readable r ~node:1 ~vr:3);
  (* ... and auto-clears: a later stale vr probe is not re-blocked. *)
  checkb "gate auto-clears once satisfied" true
    (Recovery.readable r ~node:1 ~vr:0);
  checki "restarts counted" 2 (Recovery.recoveries r)

(* ------------------------------------- delivery-accounting regression

   The per-(src, seq, dst) dedup in Network's delivered counter: a
   retransmitted copy landing after the original must not count as a second
   delivery, while the same logical message reaching a different
   destination, or an unkeyed message, counts per copy. *)

let delivered_counts_once_per_seq_dst () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:3 ~latency:(Latency.Constant 0.01) () in
  Network.set_delivery_key net (fun key -> key);
  List.iter
    (fun node ->
      Sim.spawn sim ~daemon:true (fun () ->
          let rec loop () =
            ignore (Network.recv net ~node);
            loop ()
          in
          loop ()))
    [ 1; 2 ];
  (* Original + logical retransmission of (src 0, seq 7) to node 1. *)
  Network.send net ~src:0 ~dst:1 (Some (0, 7));
  Network.send net ~src:0 ~dst:1 (Some (0, 7));
  (* The same logical message to a different destination counts again. *)
  Network.send net ~src:0 ~dst:2 (Some (0, 7));
  (* Unkeyed messages count once per copy. *)
  Network.send net ~src:0 ~dst:1 None;
  Network.send net ~src:0 ~dst:1 None;
  ignore (Sim.run sim ());
  checki "5 copies sent" 5 (Network.messages_sent net);
  checki "retransmit counted once per (seq,dst)" 4
    (Network.messages_delivered net)

(* ------------------------------------------------- engine integration *)

let repl_cfg ~nodes ~replicas ~policy =
  {
    (Engine.default_config ~nodes) with
    Engine.replicas;
    latency = Latency.Exponential 0.003;
    think_time = 0.0005;
    policy;
    reliable_channel = true;
    retransmit_timeout = 0.02;
  }

let gen nodes =
  Workload.Synthetic.generator
    {
      (Workload.Synthetic.default ~nodes) with
      Workload.Synthetic.arrival_rate = 300.;
      read_ratio = 0.25;
      fanout = 2;
      keys_per_node = 15;
      zipf_s = 0.7;
    }

let nc_mode_rejected () =
  let sim = Sim.create ~seed:1 () in
  let cfg = { (repl_cfg ~nodes:6 ~replicas:3 ~policy:Policy.Manual) with Engine.nc_mode = true } in
  checkb "replication + nc_mode rejected" true
    (match Engine.create sim cfg () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Quorum advancement terminates with k-1 replicas of a group fail-stopped
   across the whole advancement window. *)
let advancement_with_k_minus_1_down () =
  let nodes = 6 in
  let sim = Sim.create ~seed:41 () in
  let cfg = repl_cfg ~nodes ~replicas:3 ~policy:Policy.Manual in
  let members = Placement.members (Placement.create ~nodes ~replicas:3) 0 in
  let faults =
    Injector.create sim
      (Plan.make ~seed:41
         ~crashes:(Plan.crash_replicas ~members ~keep:1 ~at:0.15 ~restart:0.9)
         ())
  in
  let engine = Engine.create sim cfg ~faults () in
  let adv = ref None in
  Sim.schedule sim ~delay:0.3 (fun () -> adv := Some (Engine.advance engine));
  let outcome =
    Runner.drive sim (Engine.packed engine) (gen nodes)
      { Runner.seed = 41; duration = 0.5; settle = 6.0; max_txns = 10_000 }
  in
  (match !adv with
  | Some iv when Ivar.is_full iv -> ()
  | _ -> Alcotest.fail "advancement did not complete with 2 of 3 replicas down");
  checkb "advancement completed" true (Engine.advancements_completed engine >= 1);
  Certified.check ~engine "k-1 down" outcome

(* Deterministic read failover plus the readable-after-recovery gate: with
   the primary of group 0 crashed across several advancements, reads fail
   over to its peers; just after restart the gate still holds the node out
   of the read path, and by quiescence it has reopened. *)
let failover_and_recovery_gate () =
  let nodes = 6 in
  let sim = Sim.create ~seed:61 () in
  let cfg = repl_cfg ~nodes ~replicas:3 ~policy:(Policy.Periodic 0.2) in
  let faults =
    Injector.create sim
      (Plan.make ~seed:61 ~crashes:[ Plan.crash ~node:0 ~at:0.25 ~restart:0.7 ] ())
  in
  let engine = Engine.create sim cfg ~faults () in
  let down_probe = ref false and post_restart_probe = ref true in
  (* The gate arms at restart, not at crash: mid-outage the node is still
     "readable" by the gate (routing excludes it via liveness instead). *)
  Sim.schedule sim ~delay:0.5 (fun () ->
      down_probe := Engine.node_readable engine ~node:0);
  Sim.schedule sim ~delay:0.72 (fun () ->
      post_restart_probe := Engine.node_readable engine ~node:0);
  let outcome =
    Runner.drive sim (Engine.packed engine) (gen nodes)
      { Runner.seed = 61; duration = 0.9; settle = 5.0; max_txns = 10_000 }
  in
  checkb "gate unarmed while down (liveness excludes the node)" true
    !down_probe;
  checkb "gate closed just after restart" true (not !post_restart_probe);
  checkb "gate reopens once caught up" true (Engine.node_readable engine ~node:0);
  checkb "reads failed over" true
    (Counter_set.get outcome.Runner.stats "repl.failovers" > 0);
  checkb "restart recorded" true
    (Counter_set.get outcome.Runner.stats "repl.recoveries" >= 1);
  checkb "mirrors flowed" true
    (Counter_set.get outcome.Runner.stats "repl.mirrors" > 0);
  Certified.check ~engine "failover" outcome

(* ------------------------------------------------- k = 1 golden digest

   restart_recover's version seeding became group-aware; with replicas = 1
   (every group a singleton) a node-crash schedule must replay
   byte-identically to the pre-replication engine. The digest and event
   count below were recorded with the group-size-1 path pinned to the
   historical behavior; any drift means replication leaked into k = 1. *)

let history_digest (outcome : Runner.outcome) =
  List.fold_left
    (fun acc ((spec : Spec.t), (res : Result.t)) ->
      acc
      lxor Hashtbl.hash
             ( spec.Spec.id,
               Result.committed res,
               res.Result.submit_time,
               Result.latency res,
               Result.blocking_latency res ))
    0 outcome.Runner.history

let golden_k1_crash_run () =
  let nodes = 4 in
  let sim = Sim.create ~seed:211 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.latency = Latency.Exponential 0.003;
      think_time = 0.0005;
      policy = Policy.Periodic 0.2;
      reliable_channel = true;
      retransmit_timeout = 0.02;
    }
  in
  let faults =
    Injector.create sim
      (Plan.make ~seed:2111 ~crashes:[ Plan.crash ~node:2 ~at:0.4 ~restart:0.8 ] ())
  in
  let engine = Engine.create sim cfg ~faults () in
  let outcome =
    Runner.drive sim (Engine.packed engine) (gen nodes)
      { Runner.seed = 211; duration = 1.0; settle = 5.0; max_txns = 100_000 }
  in
  (outcome, Sim.events_executed sim)

let golden_k1_restart_digest () =
  let outcome, events = golden_k1_crash_run () in
  let d = history_digest outcome land 0xffffffff in
  checkb
    (Printf.sprintf "k=1 crash digest 0x%08x (got 0x%08x)" 0x2f6d0f2e d)
    true (d = 0x2f6d0f2e);
  checki "k=1 crash event count" 15422 events;
  (* Replaying the identical schedule must reproduce the digest — the
     reproducer contract under a node restart. *)
  let outcome2, events2 = golden_k1_crash_run () in
  checki "replay same digest" d (history_digest outcome2 land 0xffffffff);
  checki "replay same events" events events2

(* -------------------- mcheck: replica crash inside each phase

   Mirror of test_fault's coordinator sweep: a fault-free reference run
   pins the WAL phase-entry times of the first advancement; the explorer
   then fail-stops each replica of the (single) group strictly inside each
   of the four phases. Every schedule must finish the advancement on the
   surviving quorum and stay clean. *)

let run_repl_coord ?(plan = Plan.none) () =
  let nodes = 3 in
  let sim = Sim.create ~seed:71 () in
  let cfg =
    {
      (repl_cfg ~nodes ~replicas:3 ~policy:Policy.Manual) with
      Engine.latency = Latency.Constant 0.004;
      think_time = 0.0003;
      retransmit_timeout = 0.01;
    }
  in
  let faults = Injector.create sim plan in
  let engine = Engine.create sim cfg ~faults () in
  let adv = ref None in
  Sim.schedule sim ~delay:0.1 (fun () -> adv := Some (Engine.advance engine));
  let gen =
    Workload.Synthetic.generator
      {
        (Workload.Synthetic.default ~nodes) with
        Workload.Synthetic.arrival_rate = 300.;
        fanout = 2;
      }
  in
  let outcome =
    Runner.drive sim (Engine.packed engine) gen
      {
        Runner.default_setup with
        Runner.seed = 71;
        duration = 0.3;
        settle = 6.0;
      }
  in
  (outcome, engine, !adv)

let repl_phase_entries =
  lazy
    (let _, engine, adv = run_repl_coord () in
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

let replica_crash_scenario ctl =
  let entry = Lazy.force repl_phase_entries in
  let node = Explorer.choose ctl 3 in
  let k = Explorer.choose ctl 4 in
  let at =
    if k < 3 then (entry.(k) +. entry.(k + 1)) /. 2. else entry.(3) +. 0.002
  in
  let plan =
    Plan.make ~seed:71 ~crashes:[ Plan.crash ~node ~at ~restart:(at +. 0.2) ] ()
  in
  let outcome, engine, adv = run_repl_coord ~plan () in
  (match adv with
  | Some iv when Ivar.is_full iv -> ()
  | _ -> failwith "advancement did not survive the replica crash");
  if Engine.advancements_completed engine < 1 then
    failwith "advancement never completed";
  if not (Checker.Atomicity.clean (Runner.atomicity outcome)) then
    failwith "atomic visibility violated";
  if outcome.Runner.unfinished > 0 then
    failwith "transactions left unfinished"

let replica_crash_each_phase () =
  let outcome = Explorer.explore replica_crash_scenario in
  (match outcome.Explorer.failure with
  | Some (path, exn) ->
      Alcotest.failf "replica crash %s breaks quorum advancement: %s"
        (String.concat "," (List.map string_of_int path))
        (Printexc.to_string exn)
  | None -> ());
  checkb "tree exhausted" true outcome.Explorer.exhausted;
  checki "3 replicas x 4 phases" 12 outcome.Explorer.runs

(* --------------------------------------------------------------- suite *)

let () =
  Alcotest.run "repl"
    [
      ( "placement",
        [
          Alcotest.test_case "groups" `Quick placement_groups;
          Alcotest.test_case "validation" `Quick placement_validation;
          Alcotest.test_case "failover order" `Quick placement_failover_order;
          Alcotest.test_case "key determinism" `Quick
            placement_key_deterministic;
        ] );
      ( "quorum",
        [
          Alcotest.test_case "poll rules" `Quick quorum_rules;
          Alcotest.test_case "matrix agreement" `Quick quorum_matrices_agree;
        ] );
      ( "recovery",
        [ Alcotest.test_case "readable gate" `Quick recovery_gate ] );
      ( "network",
        [
          Alcotest.test_case "delivered once per (seq,dst)" `Quick
            delivered_counts_once_per_seq_dst;
        ] );
      ( "engine",
        [
          Alcotest.test_case "nc_mode rejected" `Quick nc_mode_rejected;
          Alcotest.test_case "advancement with k-1 down" `Quick
            advancement_with_k_minus_1_down;
          Alcotest.test_case "failover + recovery gate" `Quick
            failover_and_recovery_gate;
          Alcotest.test_case "k=1 crash golden digest" `Quick
            golden_k1_restart_digest;
        ] );
      ( "mcheck",
        [
          Alcotest.test_case "replica crash in each phase" `Quick
            replica_crash_each_phase;
        ] );
    ]
