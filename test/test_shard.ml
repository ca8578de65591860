(* Tests for lib/shard (the cross-shard read-vector service) and the
   sharded engine surface: Engine.create validation rejections, the
   shard-aware accessors, a digest-pinned sharded run through a replica
   crash, and the no-torn-vector property — any two vectors handed out by
   the read-vector service are componentwise comparable under arbitrary
   publish/assign interleavings. *)

module Sim = Simul.Sim
module Latency = Netsim.Latency
module Engine = Threev.Engine
module Rvector = Shard.Rvector

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------- engine creation validation *)

let invalid cfg_f msg name =
  Alcotest.check_raises name (Invalid_argument msg) (fun () ->
      let sim = Sim.create ~seed:1 () in
      let cfg = cfg_f (Engine.default_config ~nodes:8) in
      ignore (Engine.create sim cfg ()))

let create_rejections () =
  invalid
    (fun c -> { c with Engine.shards = 0 })
    "Engine.create: shards must be at least 1" "shards zero";
  invalid
    (fun c -> { c with Engine.shards = 9 })
    "Engine.create: shards must not exceed nodes" "shards over nodes";
  invalid
    (fun c -> { c with Engine.shards = 3 })
    "Engine.create: shards must divide nodes evenly (contiguous equal shard \
     blocks)"
    "non-dividing shards";
  invalid
    (fun c -> { c with Engine.shards = 2; replicas = 3 })
    "Engine.create: nodes-per-shard must be a multiple of replicas (a \
     replica group must not straddle a shard boundary)"
    "group straddles boundary";
  invalid
    (fun c -> { c with Engine.replicas = 0 })
    "Engine.create: replicas must be at least 1" "replicas zero";
  invalid
    (fun c -> { c with Engine.replicas = 9 })
    "Engine.create: replicas must be in 1..nodes" "replicas over nodes";
  invalid
    (fun c -> { c with Engine.shards = 2; nc_mode = true })
    "Engine.create: sharding requires nc_mode off (2PC admission waits on a \
     single global frontier)"
    "sharded nc_mode";
  invalid
    (fun c -> { c with Engine.hb_period = 0.05; hb_timeout = 0.05 })
    "Engine.create: hb_timeout must exceed hb_period" "hb timeout le period"

let engine_shard_surface () =
  let sim = Sim.create ~seed:2 () in
  let cfg = { (Engine.default_config ~nodes:4) with Engine.shards = 2 } in
  let eng = Engine.create sim cfg () in
  checki "shard count" 2 (Engine.shard_count eng);
  Alcotest.(check (list int))
    "node shards" [ 0; 0; 1; 1 ]
    (List.map (fun n -> Engine.shard_of_node eng ~node:n) [ 0; 1; 2; 3 ]);
  checki "vector width" 2 (Array.length (Engine.read_vector eng));
  let sim1 = Sim.create ~seed:2 () in
  let eng1 = Engine.create sim1 (Engine.default_config ~nodes:4) () in
  checki "unsharded width" 1 (Array.length (Engine.read_vector eng1));
  checkb "no vector for unknown txn" true
    (Engine.assigned_vector eng ~txn:999 = None)

(* ------------------------------------------- rvector basics *)

let rvector_basics () =
  let rv = Rvector.create ~shards:3 ~init_vr:5 in
  checkb "initial" true (Rvector.vector rv = [| 5; 5; 5 |]);
  Rvector.publish rv ~shard:1 ~vr:7;
  Rvector.publish rv ~shard:1 ~vr:6 (* monotone: ignored *);
  checkb "published" true (Rvector.vector rv = [| 5; 7; 5 |]);
  let v = Rvector.assign rv ~entries:[| 1; 0; 2 |] in
  checkb "assigned snapshot" true (v = [| 5; 7; 5 |]);
  checki "assigned count" 1 (Rvector.assigned rv);
  checki "pending s0" 1 (Rvector.pending rv ~shard:0 ~version:5);
  checki "pending s1" 0 (Rvector.pending rv ~shard:1 ~version:7);
  checki "pending s2" 2 (Rvector.pending rv ~shard:2 ~version:5);
  Rvector.arrived rv ~shard:2 ~version:5;
  checki "one drained" 1 (Rvector.pending rv ~shard:2 ~version:5);
  Rvector.arrived rv ~shard:2 ~version:5;
  Rvector.arrived rv ~shard:0 ~version:5;
  checki "all drained" 0 (Rvector.pending rv ~shard:2 ~version:5);
  Alcotest.check_raises "over-drain is a bug"
    (Invalid_argument
       "Shard.Rvector.arrived: no pending assignment for shard 0 version 5")
    (fun () -> Rvector.arrived rv ~shard:0 ~version:5)

(* --------------------------------------- no-torn-vector qcheck *)

(* Random interleaving of publishes and assigns: every pair of assigned
   vectors must be componentwise comparable (one dominates the other),
   because components are monotone and assign snapshots atomically. *)
let comparable a b =
  let le x y = Array.for_all2 (fun u v -> u <= v) x y in
  le a b || le b a

let vectors_never_torn =
  let gen =
    QCheck.Gen.(
      pair (int_range 2 6)
        (list_size (int_range 1 60)
           (pair (int_range 0 5) (int_range 0 20))))
  in
  QCheck.Test.make ~name:"rvector: assigned vectors are never torn" ~count:300
    (QCheck.make gen) (fun (shards, ops) ->
      let rv = Rvector.create ~shards ~init_vr:0 in
      let assigned = ref [] in
      List.iteri
        (fun i (shard, vr) ->
          if i mod 3 = 2 then
            (* No in-flight accounting needed for the torn check. *)
            assigned :=
              Rvector.assign rv ~entries:(Array.make shards 0) :: !assigned
          else Rvector.publish rv ~shard:(shard mod shards) ~vr)
        ops;
      let vs = Array.of_list !assigned in
      let ok = ref true in
      Array.iteri
        (fun i a ->
          Array.iteri (fun j b -> if i < j && not (comparable a b) then ok := false) vs)
        vs;
      !ok
      &&
      (* and every assigned vector is bounded by the published frontier *)
      let front = Rvector.vector rv in
      Array.for_all (fun a -> Array.for_all2 ( >= ) front a) vs)

(* Engine-level: every vector the sharded engine hands to a cross-shard
   read is pairwise comparable with every other, and never exceeds the
   final published frontier. *)
let engine_vectors_comparable () =
  let sim = Sim.create ~seed:7 () in
  let cfg =
    {
      (Engine.default_config ~nodes:8) with
      Engine.shards = 4;
      replicas = 2;
      latency = Latency.Exponential 0.003;
      policy = Threev.Policy.Periodic 0.15;
      think_time = 0.0005;
    }
  in
  let engine = Engine.create sim cfg () in
  let gen =
    Workload.Synthetic.generator
      {
        (Workload.Synthetic.default ~nodes:8) with
        Workload.Synthetic.shards = 4;
        arrival_rate = 300.;
        read_ratio = 0.4;
        fanout = 3;
      }
  in
  let setup =
    {
      Harness.Runner.default_setup with
      Harness.Runner.seed = 7;
      duration = 0.6;
      settle = 4.0;
    }
  in
  let outcome = Harness.Runner.drive sim (Engine.packed engine) gen setup in
  let vectors =
    List.filter_map
      (fun (_, (res : Txn.Result.t)) ->
        Engine.assigned_vector engine ~txn:res.Txn.Result.txn_id)
      outcome.Harness.Runner.history
  in
  checkb "some cross-shard reads ran" true (List.length vectors > 0);
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then checkb "pairwise comparable" true (comparable a b))
        vectors)
    vectors;
  let front = Engine.read_vector engine in
  List.iter
    (fun a ->
      checkb "bounded by frontier" true (Array.for_all2 ( >= ) front a))
    vectors

(* ------------------------------------------- sharded run, digest-pinned

   8 nodes, S = 4, k = 2 (each shard one replica pair), one replica
   crashed across an advancement window, and a shard-respecting workload:
   updates confined to one shard, reads fanning out across them, so the
   cross-shard read-vector path is exercised. Every shard must advance,
   some read must carry a vector, the run must certify clean, and its
   schedule must match the recorded digest and replay with the same
   seeds. *)

let sharded_run () =
  let nodes = 8 in
  let sim = Sim.create ~seed:41 () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.shards = 4;
      replicas = 2;
      latency = Latency.Exponential 0.003;
      think_time = 0.0005;
      policy = Threev.Policy.Periodic 0.2;
      reliable_channel = true;
      retransmit_timeout = 0.02;
    }
  in
  let faults =
    Fault.Injector.create sim
      (Fault.Plan.make ~seed:41
         ~crashes:[ Fault.Plan.crash ~node:2 ~at:0.25 ~restart:0.7 ] ())
  in
  let engine = Engine.create sim cfg ~faults () in
  let gen =
    Workload.Synthetic.generator
      {
        (Workload.Synthetic.default ~nodes) with
        Workload.Synthetic.shards = 4;
        arrival_rate = 400.;
        read_ratio = 0.35;
        fanout = 3;
        keys_per_node = 15;
      }
  in
  let outcome =
    Harness.Runner.drive sim (Engine.packed engine) gen
      {
        Harness.Runner.seed = 41;
        duration = 0.9;
        settle = 4.0;
        max_txns = 5_000;
      }
  in
  (engine, outcome)

let history_digest (outcome : Harness.Runner.outcome) =
  List.fold_left
    (fun acc ((spec : Txn.Spec.t), res) ->
      acc
      lxor Hashtbl.hash
             ( spec.Txn.Spec.id,
               Txn.Result.committed res,
               res.Txn.Result.submit_time,
               Txn.Result.latency res,
               Txn.Result.blocking_latency res ))
    0 outcome.Harness.Runner.history
  land 0xffffffff

let sharded_run_certifies () =
  let engine, outcome = sharded_run () in
  checkb "every shard advanced" true
    (Engine.advancements_completed engine >= 4);
  checkb "some cross-shard read carried a vector" true
    (Stats.Counter_set.get outcome.Harness.Runner.stats "shard.vectored_reads"
    > 0);
  Certified.check ~engine "sharded run" outcome;
  let d = history_digest outcome in
  checki "schedule digest" 0x1148858e d;
  checki "same-seed replay" d (history_digest (snd (sharded_run ())))

let qsuite = List.map QCheck_alcotest.to_alcotest [ vectors_never_torn ]

let () =
  Alcotest.run "shard"
    [
      ( "engine",
        [
          Alcotest.test_case "create rejections" `Quick create_rejections;
          Alcotest.test_case "shard surface" `Quick engine_shard_surface;
          Alcotest.test_case "vectors comparable (sim)" `Quick
            engine_vectors_comparable;
          Alcotest.test_case "sharded run certifies, digest-pinned" `Quick
            sharded_run_certifies;
        ] );
      ( "rvector",
        [ Alcotest.test_case "basics" `Quick rvector_basics ] );
      ("properties", qsuite);
    ]
