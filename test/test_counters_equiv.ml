(* Equivalence harness for the windowed flat counter tables.

   [Threev.Counters] replaced a Hashtbl-of-rows representation with a dense
   sliding window of [Counters.window] slots plus a spill table for
   out-of-window versions. The two representations must be observationally
   identical under every interleaving of increments, reads, snapshots and
   GC — including increments landing below an advanced GC floor (a late
   completion resurrecting a collected version) and far above the window
   (a version opened before the floor caught up), and floors that adopt
   spill rows back into the window. [Ref_counters] below reimplements the
   old boxed representation as the oracle; qcheck drives both through
   random op sequences and compares every observable after each step.

   [Threev.Vwindow] (windowed int-per-version tallies, same windowing
   discipline) gets the same treatment against a plain Hashtbl oracle.

   The census several tables share must equal the union of their version
   sets after every op, the sparse poll decisions must agree with the
   dense matrix compare, and an engine's census window, sampled during
   replicated and sharded runs, must equal the full member rescan
   ([Version_oracle]). *)

module Sim = Simul.Sim
module Engine = Threev.Engine
module Counters = Threev.Counters
module Vwindow = Threev.Vwindow
module Quorum = Repl.Quorum

let checki = Alcotest.(check int)

(* ------------------------------------------------ reference oracle *)

module Ref_counters = struct
  type row = { req : int array; comp : int array }
  type t = { nodes : int; tbl : (int, row) Hashtbl.t }

  let create ~nodes = { nodes; tbl = Hashtbl.create 8 }

  let row t v =
    match Hashtbl.find_opt t.tbl v with
    | Some r -> r
    | None ->
        let r = { req = Array.make t.nodes 0; comp = Array.make t.nodes 0 } in
        Hashtbl.replace t.tbl v r;
        r

  let ensure_version t v = ignore (row t v)

  let incr_r t ~version ~dst =
    let r = row t version in
    r.req.(dst) <- r.req.(dst) + 1

  let incr_c t ~version ~src =
    let r = row t version in
    r.comp.(src) <- r.comp.(src) + 1

  let r t ~version ~dst =
    match Hashtbl.find_opt t.tbl version with
    | None -> 0
    | Some row -> row.req.(dst)

  let c t ~version ~src =
    match Hashtbl.find_opt t.tbl version with
    | None -> 0
    | Some row -> row.comp.(src)

  let snapshot_r t ~version =
    match Hashtbl.find_opt t.tbl version with
    | None -> Array.make t.nodes 0
    | Some row -> Array.copy row.req

  let snapshot_c t ~version =
    match Hashtbl.find_opt t.tbl version with
    | None -> Array.make t.nodes 0
    | Some row -> Array.copy row.comp

  let versions t =
    Hashtbl.fold (fun v _ acc -> v :: acc) t.tbl [] |> List.sort Int.compare

  let gc_below t v =
    let dead =
      Hashtbl.fold (fun w _ acc -> if w < v then w :: acc else acc) t.tbl []
    in
    List.iter (Hashtbl.remove t.tbl) dead
end

(* -------------------------------------------------- op sequences *)

type op =
  | Incr_r of int * int  (* version, dst *)
  | Incr_c of int * int  (* version, src *)
  | Ensure of int
  | Gc of int

let op_to_string = function
  | Incr_r (v, d) -> Printf.sprintf "Incr_r(%d,%d)" v d
  | Incr_c (v, s) -> Printf.sprintf "Incr_c(%d,%d)" v s
  | Ensure v -> Printf.sprintf "Ensure(%d)" v
  | Gc v -> Printf.sprintf "Gc(%d)" v

(* Versions range over several windows' worth of values, so a run visits
   in-window fast paths, above-window spills, below-floor resurrections
   (an [Incr_*] at a version an earlier [Gc] collected), and GC-edge
   adoption of spill rows. *)
let max_version = 6 * Counters.window

let op_gen nodes =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map2 (fun v d -> Incr_r (v, d)) (int_bound max_version)
            (int_bound (nodes - 1)) );
        ( 5,
          map2 (fun v s -> Incr_c (v, s)) (int_bound max_version)
            (int_bound (nodes - 1)) );
        (1, map (fun v -> Ensure v) (int_bound max_version));
        (2, map (fun v -> Gc v) (int_bound max_version));
      ])

let ops_arbitrary nodes =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
    QCheck.Gen.(list_size (int_range 0 200) (op_gen nodes))

let apply_real cnt = function
  | Incr_r (version, dst) -> Counters.incr_r cnt ~version ~dst
  | Incr_c (version, src) -> Counters.incr_c cnt ~version ~src
  | Ensure version -> Counters.ensure_version cnt version
  | Gc version -> Counters.gc_below cnt version

let apply_ref oracle = function
  | Incr_r (version, dst) -> Ref_counters.incr_r oracle ~version ~dst
  | Incr_c (version, src) -> Ref_counters.incr_c oracle ~version ~src
  | Ensure version -> Ref_counters.ensure_version oracle version
  | Gc version -> Ref_counters.gc_below oracle version

(* Every observable the engine uses, compared over the full probe space.
   Sparse snapshots are compared with the oracle's dense rows reduced to
   their nonzero entries. *)
let observably_equal nodes cnt oracle =
  let ok = ref true in
  for v = 0 to max_version do
    for node = 0 to nodes - 1 do
      if Counters.r cnt ~version:v ~dst:node <> Ref_counters.r oracle ~version:v ~dst:node
      then ok := false;
      if Counters.c cnt ~version:v ~src:node <> Ref_counters.c oracle ~version:v ~src:node
      then ok := false
    done;
    if
      Counters.sparse_r cnt ~version:v
      <> Version_oracle.sparse_of_dense (Ref_counters.snapshot_r oracle ~version:v)
    then ok := false;
    if
      Counters.sparse_c cnt ~version:v
      <> Version_oracle.sparse_of_dense (Ref_counters.snapshot_c oracle ~version:v)
    then ok := false
  done;
  (* [versions] must agree exactly (sorted ascending on both sides). *)
  if Counters.versions cnt <> Ref_counters.versions oracle then ok := false;
  !ok

let equivalence_property nodes =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "windowed counters == boxed oracle (%d nodes)" nodes)
    ~count:300 (ops_arbitrary nodes)
    (fun ops ->
      let cnt = Counters.create ~census:(Counters.census ()) ~nodes in
      let oracle = Ref_counters.create ~nodes in
      List.for_all
        (fun op ->
          apply_real cnt op;
          apply_ref oracle op;
          observably_equal nodes cnt oracle)
        ops)

(* A directed GC-edge walk qcheck tends to under-sample: monotone floors
   sweeping across a long version run, with spills written ahead of the
   window and resurrected behind it at every step. *)
let gc_edge_walk () =
  let nodes = 3 in
  let cnt = Counters.create ~census:(Counters.census ()) ~nodes in
  let oracle = Ref_counters.create ~nodes in
  let both op =
    apply_real cnt op;
    apply_ref oracle op
  in
  for v = 0 to 40 do
    both (Incr_r (v, v mod nodes));
    both (Incr_c (v + Counters.window, (v + 1) mod nodes));
    (* fill far ahead of the window *)
    both (Incr_r (v + (3 * Counters.window), v mod nodes));
    both (Gc v);
    (* resurrect behind the floor *)
    if v > 2 then both (Incr_c (v - 2, v mod nodes));
    Alcotest.(check bool)
      (Printf.sprintf "equal after step %d" v)
      true
      (observably_equal nodes cnt oracle)
  done

(* An untouched version's snapshot is empty, and snapshots must not alias
   live counter state. *)
let snapshot_isolation () =
  let cnt = Counters.create ~census:(Counters.census ()) ~nodes:4 in
  let z = Counters.sparse_r cnt ~version:9 in
  checki "untouched version is empty" 0 (Array.length z);
  Counters.incr_r cnt ~version:2 ~dst:1;
  let s = Counters.sparse_r cnt ~version:2 in
  Counters.incr_r cnt ~version:2 ~dst:1;
  Alcotest.(check (array int)) "snapshot is a copy" [| Quorum.entry ~peer:1 ~count:1 |] s;
  checki "live row moved on" 2 (Counters.r cnt ~version:2 ~dst:1)

(* ------------------------------------------------------- vwindow *)

let vwindow_equivalence =
  QCheck.Test.make ~name:"vwindow == hashtbl oracle" ~count:300
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map
              (fun (k, v) ->
                if k = 0 then Printf.sprintf "Add(%d)" v
                else Printf.sprintf "Gc(%d)" v)
              ops))
       QCheck.Gen.(
         list_size (int_range 0 150)
           (pair (int_bound 4) (int_bound (6 * Vwindow.window)))))
    (fun ops ->
      let w = Vwindow.create () in
      let oracle = Hashtbl.create 8 in
      let max_v = 6 * Vwindow.window in
      List.for_all
        (fun (kind, v) ->
          if kind = 0 then begin
            Vwindow.add w v 1;
            Hashtbl.replace oracle v
              ((match Hashtbl.find_opt oracle v with Some n -> n | None -> 0)
              + 1)
          end
          else begin
            Vwindow.gc_below w v;
            Hashtbl.iter
              (fun k _ -> if k < v then Hashtbl.remove oracle k)
              (Hashtbl.copy oracle)
          end;
          let ok = ref true in
          for probe = 0 to max_v do
            let expect =
              match Hashtbl.find_opt oracle probe with Some n -> n | None -> 0
            in
            if Vwindow.get w probe <> expect then ok := false
          done;
          !ok)
        ops)

(* -------------------------------------------------------- census *)

(* Several tables share one census and take random ops, each op naming its
   table. After every op the census must list exactly the union of the
   tables' version sets, count it in [distinct], and, with a fixed subset
   of tables excluded, list the union over the rest. *)
let census_property =
  let tables = 3 and nodes = 2 in
  QCheck.Test.make ~name:"census == union of table versions" ~count:300
    (QCheck.make
       ~print:(fun (excluded, ops) ->
         Printf.sprintf "excluded [%s]; %s"
           (String.concat ";" (Array.to_list (Array.map string_of_bool excluded)))
           (String.concat "; "
              (List.map (fun (i, op) -> Printf.sprintf "%d:%s" i (op_to_string op)) ops)))
       QCheck.Gen.(
         pair
           (array_repeat tables bool)
           (list_size (int_range 0 200) (pair (int_bound (tables - 1)) (op_gen nodes)))))
    (fun (excluded, ops) ->
      let census = Counters.census () in
      let ts = Array.init tables (fun _ -> Counters.create ~census ~nodes) in
      let union keep =
        List.concat
          (List.filteri (fun i _ -> keep i) (Array.to_list (Array.map Counters.versions ts)))
        |> List.sort_uniq Int.compare
      in
      let excluding = List.filteri (fun i _ -> excluded.(i)) (Array.to_list ts) in
      List.for_all
        (fun (i, op) ->
          apply_real ts.(i) op;
          let all = union (fun _ -> true) in
          Counters.census_versions census = all
          && Counters.distinct census = List.length all
          && Counters.census_versions ~excluding census
             = union (fun i -> not excluded.(i)))
        ops)

(* ------------------------------------------------- poll decisions *)

let matrix_gen m =
  QCheck.Gen.(
    array_repeat m (array_repeat m (frequency [ (3, return 0); (2, int_range 1 3) ])))

(* Up to three entries of a matrix redrawn; often none. *)
let flips_gen m =
  QCheck.Gen.(
    list_size (int_bound 3) (triple (int_bound (m - 1)) (int_bound (m - 1)) (int_bound 3)))

let flipped a flips =
  let b = Array.map Array.copy a in
  List.iter (fun (p, q, x) -> b.(p).(q) <- x) flips;
  b

let show_matrix a =
  String.concat "/"
    (Array.to_list
       (Array.map (fun row -> String.concat "," (Array.to_list (Array.map string_of_int row))) a))

let show_mask a = String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") a))

(* R random, C planted equal to R (every pair balanced) then flipped, and a
   random set of members that replied: [settled] over the sparse round must
   equal the dense compare. *)
let settled_property =
  QCheck.Test.make ~name:"sparse settled == dense compare" ~count:1000
    (QCheck.make
       ~print:(fun (r, c, replied) ->
         Printf.sprintf "R %s C %s replied %s" (show_matrix r) (show_matrix c)
           (show_mask replied))
       QCheck.Gen.(
         int_range 1 6 >>= fun m ->
         map3
           (fun r flips replied -> (r, flipped r flips, replied))
           (matrix_gen m) (flips_gen m) (array_repeat m bool)))
    (fun (r, c, replied) ->
      Quorum.settled (Version_oracle.round_of ~replied ~r ~c)
      = Version_oracle.settled ~replied ~r ~c)

(* A previous round (R, C) and a current one with a few entries of each
   changed, each with its own repliers: [stable] over the sparse rounds must
   equal the dense compare over members that replied to both. *)
let stable_property =
  QCheck.Test.make ~name:"sparse stable == dense compare" ~count:1000
    (QCheck.make
       ~print:(fun ((pg, pr, pc), (g, r, c)) ->
         Printf.sprintf "prev R %s C %s replied %s; cur R %s C %s replied %s"
           (show_matrix pr) (show_matrix pc) (show_mask pg) (show_matrix r)
           (show_matrix c) (show_mask g))
       QCheck.Gen.(
         int_range 1 6 >>= fun m ->
         map3
           (fun (pr, pc) (fr, fc) (pg, g) ->
             ((pg, pr, pc), (g, flipped pr fr, flipped pc fc)))
           (pair (matrix_gen m) (matrix_gen m))
           (pair (flips_gen m) (flips_gen m))
           (pair (array_repeat m bool) (array_repeat m bool))))
    (fun (((pg, pr, pc) as prev), ((g, r, c) as cur)) ->
      Quorum.stable
        (Version_oracle.round_of ~replied:pg ~r:pr ~c:pc)
        (Version_oracle.round_of ~replied:g ~r ~c)
      = Version_oracle.stable ~prev cur)

(* ------------------------------------------ census in engine runs *)

(* Drive an engine and, every millisecond of simulated time, compare each
   shard's census window with the full member rescan (live members only
   when [replicas > 1]) and the engine-wide window with the rescan of every
   node. Returns how many samples the live-only exclusion changed. *)
let census_matches_rescan ~seed ~nodes ~shards ~replicas ?(crashes = []) () =
  let sim = Sim.create ~seed () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.shards;
      replicas;
      latency = Netsim.Latency.Exponential 0.003;
      think_time = 0.0005;
      policy = Threev.Policy.Periodic 0.05;
      reliable_channel = crashes <> [];
      retransmit_timeout = 0.02;
    }
  in
  let faults = Fault.Injector.create sim (Fault.Plan.make ~seed ~crashes ()) in
  let eng = Engine.create sim cfg ~faults () in
  let per = nodes / shards in
  let excluded = ref 0 and until = 1.5 in
  let rec sample () =
    let at = Sim.now sim in
    for shard = 0 to shards - 1 do
      let want = Version_oracle.shard_window eng ~nodes ~replicas ~shard ~at in
      Alcotest.(check (list int))
        (Printf.sprintf "shard %d window at %.4f" shard at)
        want
        (Engine.version_window ~shard eng);
      if want <> Version_oracle.version_window_shard eng ~lo:(shard * per) ~n:per
      then incr excluded
    done;
    Alcotest.(check (list int))
      (Printf.sprintf "engine-wide window at %.4f" at)
      (Version_oracle.version_window_shard eng ~lo:0 ~n:nodes)
      (Engine.version_window eng);
    if at < until then Sim.schedule sim ~delay:0.001 sample
  in
  Sim.schedule sim ~delay:0. sample;
  let gen =
    Workload.Synthetic.generator
      {
        (Workload.Synthetic.default ~nodes) with
        Workload.Synthetic.shards;
        arrival_rate = 600.;
        read_ratio = 0.25;
        fanout = 2;
      }
  in
  let outcome =
    Harness.Runner.drive sim (Engine.packed eng) gen
      { Harness.Runner.seed; duration = 0.8; settle = 3.0; max_txns = 10_000 }
  in
  Alcotest.(check int) "nothing unfinished" 0 outcome.Harness.Runner.unfinished;
  Alcotest.(check bool) "advancements ran" true (Engine.advancements_completed eng > 5);
  !excluded

(* k = 3: two replicas of group 0 down while transactions run (their
   stranded subtransactions hold advancement back), then two of group 1
   down after the load stops, while quorum advancements collect versions
   the crashed replicas still hold; the exclusion must actually fire. *)
let census_replicated_run () =
  let nodes = 6 in
  let members g = Repl.Placement.members (Repl.Placement.create ~nodes ~replicas:3) g in
  let excluded =
    census_matches_rescan ~seed:7 ~nodes ~shards:1 ~replicas:3
      ~crashes:
        (Fault.Plan.crash_replicas ~members:(members 0) ~keep:1 ~at:0.2 ~restart:0.5
        @ Fault.Plan.crash_replicas ~members:(members 1) ~keep:1 ~at:0.9 ~restart:1.4)
      ()
  in
  Alcotest.(check bool) "live-only exclusion exercised" true (excluded > 0)

(* S = 4: four independent censuses, one per shard. *)
let census_sharded_run () =
  ignore (census_matches_rescan ~seed:8 ~nodes:8 ~shards:4 ~replicas:1 ())

let () =
  Alcotest.run "counters-equiv"
    [
      ( "counters",
        Alcotest.test_case "gc edge walk" `Quick gc_edge_walk
        :: Alcotest.test_case "snapshot isolation" `Quick snapshot_isolation
        :: List.map QCheck_alcotest.to_alcotest
             [ equivalence_property 2; equivalence_property 5 ] );
      ("vwindow", List.map QCheck_alcotest.to_alcotest [ vwindow_equivalence ]);
      ( "census",
        QCheck_alcotest.to_alcotest census_property
        :: [
             Alcotest.test_case "k = 3 run matches the rescan" `Quick
               census_replicated_run;
             Alcotest.test_case "S = 4 run matches the rescan" `Quick
               census_sharded_run;
           ] );
      ( "polls",
        List.map QCheck_alcotest.to_alcotest [ settled_property; stable_property ] );
    ]
