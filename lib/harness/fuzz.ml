module Sim = Simul.Sim
module Latency = Netsim.Latency
module Result = Txn.Result
module Engine = Threev.Engine
module Policy = Threev.Policy
module Mvstore = Store.Mvstore
module Srz = Checker.Serializability

type engine_kind =
  | E3v
  | E3v_nc
  | E3v_repl
  | E3v_fd
  | E3v_shard
  | E2pc
  | E_nocoord
  | E_manual

let engine_label = function
  | E3v -> "3v"
  | E3v_nc -> "3v-nc"
  | E3v_repl -> "3v-repl"
  | E3v_fd -> "3v-fd"
  | E3v_shard -> "3v-shard"
  | E2pc -> "2pc"
  | E_nocoord -> "nocoord"
  | E_manual -> "manual"

(* The failure-detector cases pin these; the rendered reproducer lines
   carry the same values so `threev_sim run` replays the same suspicion
   schedule. *)
let fd_hb_period = 0.02
let fd_hb_timeout = 0.08
let fd_phase_deadline = 0.5

type atom =
  | Loss of float
  | Dup of float
  | Partition of int * int * float * float
  | Partition_set of int list * float * float * bool
  | Crash of int * float * float
  | Coord_crash of float * float
  | Hb_loss of int * float * float * float

let atom_flag = function
  | Loss p -> Printf.sprintf "--drop-prob %g" p
  | Dup p -> Printf.sprintf "--dup-prob %g" p
  | Partition (s, d, f, u) -> Printf.sprintf "--partition %d:%d:%g:%g" s d f u
  | Partition_set (set, f, u, oneway) ->
      Printf.sprintf "--partition %s@%g:%g%s"
        (String.concat "," (List.map string_of_int set))
        f u
        (if oneway then ":oneway" else "")
  | Crash (n, a, r) -> Printf.sprintf "--crash %d@%g:%g" n a r
  | Coord_crash (a, r) -> Printf.sprintf "--coord-crash %g:%g" a r
  | Hb_loss (n, f, u, p) ->
      if p >= 1. then Printf.sprintf "--hb-loss %d@%g:%g" n f u
      else Printf.sprintf "--hb-loss %d@%g:%g:%g" n f u p

type workload_kind = W_synthetic | W_hospital | W_pos

let workload_label = function
  | W_synthetic -> "synthetic"
  | W_hospital -> "hospital"
  | W_pos -> "pos"

type case = {
  index : int;
  engine : engine_kind;
  workload : workload_kind;
  nodes : int;
  replicas : int;
  shards : int;
  seed : int;
  fault_seed : int;
  rate : float;
  read_ratio : float;
  nc_ratio : float;
  duration : float;
  atoms : atom list;
}

(* ------------------------------------------------------- derivation *)

let round3 x = Float.round (x *. 1000.) /. 1000.

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* Fault atoms for a 3V case: each kind at most once, so a plan maps
   one-to-one onto `threev_sim run` flags. All fault times land inside the
   submission window plus the first second of settling, where there is
   still protocol traffic to disturb. *)
let gen_atoms rng ~nodes ~duration =
  let horizon = duration +. 1.0 in
  let time () = round3 (0.05 +. Random.State.float rng (horizon -. 0.05)) in
  let make_kind = function
    | 0 -> Loss (round3 (0.02 +. Random.State.float rng 0.06))
    | 1 -> Dup (round3 (0.02 +. Random.State.float rng 0.06))
    | 2 ->
        let src = Random.State.int rng nodes in
        let dst = (src + 1 + Random.State.int rng (nodes - 1)) mod nodes in
        let from_ = time () in
        Partition (src, dst, from_, round3 (from_ +. 0.1 +. Random.State.float rng 0.15))
    | 3 ->
        let at = time () in
        Crash
          (Random.State.int rng nodes, at,
           round3 (at +. 0.1 +. Random.State.float rng 0.15))
    | _ ->
        let at = time () in
        Coord_crash (at, round3 (at +. 0.1 +. Random.State.float rng 0.2))
  in
  (* Shuffle kinds, keep 1-2 distinct ones. *)
  let kinds = [ 0; 1; 2; 3; 4 ] in
  let shuffled =
    List.map (fun k -> (Random.State.bits rng, k)) kinds
    |> List.sort compare |> List.map snd
  in
  let n = 1 + Random.State.int rng 2 in
  List.filteri (fun i _ -> i < n) shuffled |> List.map make_kind

(* Fault atoms for a replicated 3V case: always at least one data-node
   crash (the whole point of replication), optionally compounded with
   uniform loss. *)
let gen_repl_atoms rng ~nodes ~duration =
  let horizon = duration +. 1.0 in
  let at = round3 (0.05 +. Random.State.float rng (horizon -. 0.05)) in
  let crash =
    Crash
      ( Random.State.int rng nodes,
        at,
        round3 (at +. 0.1 +. Random.State.float rng 0.15) )
  in
  if Random.State.bool rng then
    [ Loss (round3 (0.02 +. Random.State.float rng 0.04)); crash ]
  else [ crash ]

(* Fault atoms for a sharded case: always a replica crash (each shard's
   block is replicated, so any node is fair game), optionally compounded
   with uniform loss or a coordinator crash — which the injector routes to
   shard 0's coordinator, the failure-matrix "coordinator of one shard
   down, the other shards keep advancing" row. *)
let gen_shard_atoms rng ~nodes ~duration =
  let horizon = duration +. 1.0 in
  let time () = round3 (0.05 +. Random.State.float rng (horizon -. 0.05)) in
  let at = time () in
  let crash =
    Crash
      ( Random.State.int rng nodes,
        at,
        round3 (at +. 0.1 +. Random.State.float rng 0.15) )
  in
  match Random.State.int rng 3 with
  | 0 -> [ crash ]
  | 1 -> [ Loss (round3 (0.02 +. Random.State.float rng 0.04)); crash ]
  | _ ->
      let a = time () in
      [ crash; Coord_crash (a, round3 (a +. 0.1 +. Random.State.float rng 0.2)) ]

(* Fault atoms for a failure-detector case: always a heartbeat-loss storm
   on some node (the false-suspicion provocation — protocol traffic
   untouched, only the detector's evidence cut), optionally compounded
   with a real replica crash or a one-way single-node partition. These are
   the three liveness shapes E15 certifies. *)
let gen_fd_atoms rng ~nodes ~duration =
  let horizon = duration +. 1.0 in
  let window ~len =
    let from_ = round3 (0.05 +. Random.State.float rng (horizon -. 0.05)) in
    (from_, round3 (from_ +. 0.1 +. Random.State.float rng len))
  in
  let from_, until_ = window ~len:0.2 in
  let storm =
    Hb_loss (Random.State.int rng nodes, from_, until_, pick rng [ 1.; 1.; 0.8 ])
  in
  match Random.State.int rng 3 with
  | 0 -> [ storm ]
  | 1 ->
      let at, restart = window ~len:0.15 in
      [ storm; Crash (Random.State.int rng nodes, at, restart) ]
  | _ ->
      let f, u = window ~len:0.15 in
      [ storm; Partition_set ([ Random.State.int rng nodes ], f, u, true) ]

let case_of_index ~fuzz_seed ~quick index =
  let rng = Random.State.make [| fuzz_seed; index; 0xf0022 |] in
  let engine =
    match index mod 8 with
    | 0 -> E3v
    | 1 -> E3v_nc
    | 2 -> E2pc
    | 3 -> E_nocoord
    | 4 -> E_manual
    | 5 -> E3v_repl
    | 6 -> E3v_fd
    | _ -> E3v_shard
  in
  (* Replicated cases run two groups of three; sharded cases four shard
     blocks of two (one replica pair each); k <= nodes must hold. *)
  let nodes =
    match engine with
    | E3v_repl | E3v_fd -> 6
    | E3v_shard -> 8
    | _ -> 3 + Random.State.int rng 2
  in
  let replicas =
    match engine with E3v_repl | E3v_fd -> 3 | E3v_shard -> 2 | _ -> 1
  in
  let shards = match engine with E3v_shard -> 4 | _ -> 1 in
  let seed = 1 + Random.State.int rng 9999 in
  let fault_seed = 1 + Random.State.int rng 9999 in
  let duration = if quick then 0.15 else 0.4 in
  let workload, rate, read_ratio, nc_ratio =
    match engine with
    | E3v_nc ->
        ( pick rng [ W_synthetic; W_pos ],
          pick rng [ 200.; 300. ],
          pick rng [ 0.2; 0.25; 0.3 ],
          pick rng [ 0.05; 0.1; 0.2 ] )
    | E3v | E3v_repl | E3v_fd | E2pc ->
        (* Replication covers the commuting core only, so nc_ratio stays 0
           for E3v_repl / E3v_fd (the engine rejects nc_mode with
           replicas > 1). *)
        ( pick rng [ W_synthetic; W_hospital; W_pos ],
          pick rng [ 200.; 300.; 400. ],
          pick rng [ 0.2; 0.25; 0.3 ],
          0. )
    | E3v_shard ->
        (* Only the synthetic generator is shard-aware (updates confined
           to one shard block, reads free to span); the higher read ratio
           keeps cross-shard vectored reads frequent. *)
        ( W_synthetic,
          pick rng [ 200.; 300.; 400. ],
          pick rng [ 0.3; 0.35; 0.4 ],
          0. )
    | E_nocoord ->
        (* The F1 front-end shape: reliably produces partial reads. *)
        (W_hospital, 400., 0.3, 0.)
    | E_manual ->
        (* The E8 straggler shape: small safety delay vs late postings. *)
        (W_hospital, 800., 0.4, 0.)
  in
  let atoms =
    match engine with
    | E3v ->
        if Random.State.float rng 1.0 < 0.25 then []
        else gen_atoms rng ~nodes ~duration
    | E3v_repl -> gen_repl_atoms rng ~nodes ~duration
    | E3v_fd -> gen_fd_atoms rng ~nodes ~duration
    | E3v_shard -> gen_shard_atoms rng ~nodes ~duration
    | E3v_nc ->
        if Random.State.bool rng then
          [ Loss (round3 (0.02 +. Random.State.float rng 0.04)) ]
        else []
    | _ -> []
  in
  {
    index; engine; workload; nodes; replicas; shards; seed; fault_seed; rate;
    read_ratio; nc_ratio; duration; atoms;
  }

(* --------------------------------------------------------- execution *)

let plan_of_atoms ~fault_seed ~nodes ~shards atoms =
  if atoms = [] then None
  else
    let drop = List.find_map (function Loss p -> Some p | _ -> None) atoms in
    let dup = List.find_map (function Dup p -> Some p | _ -> None) atoms in
    let rules =
      (if drop = None && dup = None then []
       else
         Fault.Plan.uniform_loss
           ?dup ~drop:(Option.value drop ~default:0.) ())
      @ List.concat_map
          (function
            | Partition (src, dst, from_, until_) ->
                [ Fault.Plan.partition ~src ~dst ~from_ ~until_ ]
            | Partition_set (set, from_, until_, oneway) ->
                (* The engine's endpoint space is the data nodes plus one
                   coordinator per shard at ids [nodes..nodes+S-1]. *)
                Fault.Plan.partition_set ~universe:(nodes + shards) ~set
                  ~oneway ~from_ ~until_ ()
            | Hb_loss (src, from_, until_, prob) ->
                Fault.Plan.heartbeat_loss ~src ~prob ~from_ ~until_ ()
            | _ -> [])
          atoms
    in
    let crashes =
      List.filter_map
        (function
          | Crash (node, at, restart) ->
              Some (Fault.Plan.crash ~node ~at ~restart)
          | _ -> None)
        atoms
    in
    let coord_crashes =
      List.filter_map
        (function
          | Coord_crash (at, restart) ->
              Some (Fault.Plan.coord_crash ~at ~restart)
          | _ -> None)
        atoms
    in
    Some (Fault.Plan.make ~seed:fault_seed ~rules ~crashes ~coord_crashes ())

(* Workload construction mirrors `threev_sim run` for the strict engines,
   so the rendered run command reproduces the same generator stream. The
   expected-anomaly baselines use the proven anomaly-seeding shapes of F1
   (no-coordination) and E8 (manual versioning) instead. *)
let gen_of case =
  let nodes = case.nodes in
  match (case.engine, case.workload) with
  | (E_nocoord, _) ->
      Workload.Hospital.generator
        {
          (Workload.Hospital.default ~nodes) with
          Workload.Hospital.front_end = true;
          arrival_rate = case.rate;
          read_ratio = case.read_ratio;
          visit_fanout = 2;
        }
  | (E_manual, _) ->
      Workload.Hospital.generator
        {
          (Workload.Hospital.default ~nodes) with
          Workload.Hospital.arrival_rate = case.rate;
          read_ratio = case.read_ratio;
          patients = 25;
          visit_fanout = 3;
          post_delay = 0.08;
        }
  | (_, W_synthetic) ->
      Workload.Synthetic.generator
        {
          (Workload.Synthetic.default ~nodes) with
          Workload.Synthetic.arrival_rate = case.rate;
          shards = case.shards;
          read_ratio = case.read_ratio;
          nc_ratio = case.nc_ratio;
        }
  | (_, W_hospital) ->
      Workload.Hospital.generator
        {
          (Workload.Hospital.default ~nodes) with
          Workload.Hospital.arrival_rate = case.rate;
          read_ratio = case.read_ratio;
        }
  | (_, W_pos) ->
      Workload.Point_of_sale.generator
        {
          (Workload.Point_of_sale.default ~nodes) with
          Workload.Point_of_sale.arrival_rate = case.rate;
          read_ratio = case.read_ratio;
          nc_ratio = case.nc_ratio;
        }

type check = { check_name : string; ok : bool; detail : string }

type verdict = Clean | Anomaly of string list | Failure of check list

type case_report = {
  case : case;
  verdict : verdict;
  committed : int;
  unfinished : int;
  shrunk : atom list option;
  reproducers : string list;
}

let strict = function
  | E3v | E3v_nc | E3v_repl | E3v_fd | E3v_shard | E2pc -> true
  | E_nocoord | E_manual -> false

(* Drive [case] with fault atoms [atoms] (usually [case.atoms]; subsets
   during shrinking). Returns the outcome, the settled-store lookup (3V
   engines only), and the checkers' read-vector lookup and shard map
   (sharded cases only). *)
let drive case atoms =
  let sim = Sim.create ~seed:case.seed () in
  let plan =
    plan_of_atoms ~fault_seed:case.fault_seed ~nodes:case.nodes
      ~shards:case.shards atoms
  in
  let faults = Option.map (Fault.Injector.create sim) plan in
  let gen = gen_of case in
  let setup =
    {
      Runner.default_setup with
      Runner.seed = case.seed;
      duration = case.duration;
      settle = 5.0;
    }
  in
  let outcome, lookup, vector =
    match case.engine with
    | E3v | E3v_nc | E3v_repl | E3v_fd | E3v_shard ->
        let fd = case.engine = E3v_fd in
        let cfg =
          {
            (Engine.default_config ~nodes:case.nodes) with
            Engine.latency = Latency.Exponential 0.003;
            policy = Policy.Periodic 0.2;
            nc_mode = case.engine = E3v_nc;
            think_time = 0.0005;
            reliable_channel = plan <> None || fd;
            retransmit_timeout = 0.02;
            replicas = case.replicas;
            shards = case.shards;
            hb_period = (if fd then fd_hb_period else 0.);
            hb_timeout = (if fd then fd_hb_timeout else 0.1);
            phase_deadline = (if fd then fd_phase_deadline else infinity);
          }
        in
        let engine = Engine.create sim cfg ?faults () in
        let outcome = Runner.drive sim (Engine.packed engine) gen setup in
        (* Publish everything, then replay-check the settled store. *)
        let a1 = Engine.advance engine and a2 = Engine.advance engine in
        ignore (Sim.run sim ~until:(Sim.now sim +. 20.) ());
        ignore (Simul.Ivar.is_full a1 && Simul.Ivar.is_full a2);
        let lookup key =
          let rec scan node =
            if node < 0 then None
            else
              match
                Mvstore.read_visible (Engine.store engine ~node) ~key
                  ~version:max_int
              with
              | Some (_, v) -> Some v
              | None -> scan (node - 1)
          in
          scan (case.nodes - 1)
        in
        let vector =
          if case.shards > 1 then
            Some (fun txn -> Engine.assigned_vector engine ~txn)
          else None
        in
        (outcome, Some lookup, vector)
    | E2pc ->
        let cfg =
          {
            (Baselines.Global_2pc.default_config ~nodes:case.nodes) with
            Baselines.Global_2pc.latency = Latency.Exponential 0.003;
            think_time = 0.0005;
            deadlock_timeout = 0.05;
          }
        in
        let engine = Baselines.Global_2pc.create ?faults sim cfg in
        ( Runner.drive sim (Baselines.Global_2pc.packed engine) gen setup,
          None,
          None )
    | E_nocoord ->
        let cfg =
          {
            (Baselines.No_coord.default_config ~nodes:case.nodes) with
            Baselines.No_coord.latency = Latency.Exponential 0.003;
            think_time = 0.0005;
          }
        in
        let engine = Baselines.No_coord.create sim cfg in
        ( Runner.drive sim (Baselines.No_coord.packed engine) gen setup,
          None,
          None )
    | E_manual ->
        let cfg =
          {
            (Baselines.Manual_versioning.default_config ~nodes:case.nodes) with
            Baselines.Manual_versioning.latency = Latency.Uniform (0.0005, 0.012);
            think_time = 0.0005;
            period = 0.2;
            safety_delay = (if case.seed land 1 = 0 then 0. else 0.005);
          }
        in
        let engine = Baselines.Manual_versioning.create sim cfg in
        ( Runner.drive sim (Baselines.Manual_versioning.packed engine) gen setup,
          None,
          None )
  in
  (* Per-shard version numbers are incomparable across shards: the
     certifiers only order same-shard versions, and exact-version reads
     are fenced per key by the assigned read vector. *)
  let shard_of_node =
    if case.shards > 1 then Some (fun n -> n / (case.nodes / case.shards))
    else None
  in
  (outcome, lookup, vector, shard_of_node)

let history case =
  let outcome, _, vector, shard_of_node = drive case case.atoms in
  (outcome.Runner.history, shard_of_node, vector)

(* Drive [case] with [atoms] and run every applicable checker. *)
let execute case atoms =
  let outcome, lookup, vector, shard_of_node = drive case atoms in
  let history = outcome.Runner.history in
  let srz = Srz.certify ?shard_of_node history in
  let atomr = Checker.Atomicity.check history in
  let checks =
    [
      {
        check_name = "serializability";
        ok = Srz.serializable srz && srz.Srz.unknown_count = 0;
        detail = Format.asprintf "%a" Srz.pp srz;
      };
      {
        check_name = "atomicity";
        ok = Checker.Atomicity.clean atomr;
        detail = Format.asprintf "%a" Checker.Atomicity.pp atomr;
      };
    ]
    @ (match case.engine with
      | E3v | E3v_nc | E3v_repl | E3v_fd | E3v_shard ->
          let vr = Checker.Version_reads.check ?vector ?shard_of_node history in
          [
            {
              check_name = "version-reads";
              ok = Checker.Version_reads.clean vr;
              detail = Format.asprintf "%a" Checker.Version_reads.pp vr;
            };
          ]
      | _ -> [])
    @ (match lookup with
      | Some lookup ->
          let rp = Checker.Replay.check history ~lookup in
          [
            {
              check_name = "replay";
              ok = Checker.Replay.clean rp;
              detail = Format.asprintf "%a" Checker.Replay.pp rp;
            };
          ]
      | None -> [])
    @
    if strict case.engine then
      [
        {
          check_name = "settled";
          ok = outcome.Runner.unfinished = 0;
          detail =
            Printf.sprintf "unfinished=%d of %d submitted"
              outcome.Runner.unfinished outcome.Runner.submitted;
        };
      ]
    else []
  in
  (outcome, srz, checks)

(* ----------------------------------------------------------- shrink *)

let fails case atoms =
  match execute case atoms with
  | exception _ -> true
  | _, _, checks -> List.exists (fun c -> not c.ok) checks

(* Greedy delta-debugging: drop each atom in turn; keep the drop whenever
   the case still fails without it. *)
let shrink case =
  let rec go kept = function
    | [] -> kept
    | a :: rest ->
        if fails case (kept @ rest) then go kept rest
        else go (kept @ [ a ]) rest
  in
  go [] case.atoms

(* ------------------------------------------------------- reproducers *)

let fuzz_reproducer ~fuzz_seed ~quick case =
  Printf.sprintf "threev_sim fuzz --fuzz-seed %d --only %d%s" fuzz_seed
    case.index
    (if quick then " --quick" else "")

let run_reproducer case atoms =
  let engine_flag =
    match case.engine with
    | E3v | E3v_nc | E3v_repl | E3v_fd | E3v_shard -> "3v"
    | E2pc -> "2pc"
    | E_nocoord -> "nocoord"
    | E_manual -> "manual"
  in
  String.concat " "
    ([
       "threev_sim run";
       "--engine"; engine_flag;
       "--workload"; workload_label case.workload;
       Printf.sprintf "--nodes %d" case.nodes;
       Printf.sprintf "--rate %g" case.rate;
       Printf.sprintf "--duration %g" case.duration;
       Printf.sprintf "--seed %d" case.seed;
       Printf.sprintf "--read-ratio %g" case.read_ratio;
     ]
    @ (if case.replicas > 1 then
         [ Printf.sprintf "--replicas %d" case.replicas ]
       else [])
    @ (if case.shards > 1 then [ Printf.sprintf "--shards %d" case.shards ]
       else [])
    @ (if case.nc_ratio > 0. then
         [ Printf.sprintf "--nc-ratio %g" case.nc_ratio ]
       else [])
    @ (if case.engine = E3v_fd then
         [
           Printf.sprintf "--hb-period %g" fd_hb_period;
           Printf.sprintf "--hb-timeout %g" fd_hb_timeout;
           Printf.sprintf "--phase-deadline %g" fd_phase_deadline;
         ]
       else [])
    @
    if atoms = [] then []
    else
      Printf.sprintf "--fault-seed %d" case.fault_seed
      :: List.map atom_flag atoms)

(* ----------------------------------------------------------- verdict *)

let run_case ~fuzz_seed ~quick case =
  let finish ~verdict ~committed ~unfinished ~shrunk ~extra_repro =
    {
      case;
      verdict;
      committed;
      unfinished;
      shrunk;
      reproducers = fuzz_reproducer ~fuzz_seed ~quick case :: extra_repro;
    }
  in
  match execute case case.atoms with
  | exception e ->
      let c =
        {
          check_name = "drive";
          ok = false;
          detail = Printexc.to_string e;
        }
      in
      finish ~verdict:(Failure [ c ]) ~committed:0 ~unfinished:0
        ~shrunk:None
        ~extra_repro:
          (if strict case.engine then [ run_reproducer case case.atoms ]
           else [])
  | outcome, _srz, checks ->
      let failed = List.filter (fun c -> not c.ok) checks in
      let committed = outcome.Runner.committed in
      let unfinished = outcome.Runner.unfinished in
      if failed = [] then
        finish ~verdict:Clean ~committed ~unfinished ~shrunk:None
          ~extra_repro:[]
      else if strict case.engine then begin
        let shrunk =
          if case.atoms = [] then None else Some (shrink case)
        in
        let repro_atoms = Option.value shrunk ~default:case.atoms in
        finish ~verdict:(Failure failed) ~committed ~unfinished ~shrunk
          ~extra_repro:[ run_reproducer case repro_atoms ]
      end
      else
        (* Expected-anomaly baseline: the checkers flagging it is the
           certifier doing its job. Record what was caught, with the cycle
           witness when there is one. *)
        let lines =
          (* [Srz.pp] already renders the cycle witness inline. *)
          List.map
            (fun c -> Printf.sprintf "%s: %s" c.check_name c.detail)
            failed
        in
        finish ~verdict:(Anomaly lines) ~committed ~unfinished ~shrunk:None
          ~extra_repro:[]

(* ------------------------------------------------------------- sweep *)

type summary = {
  total : int;
  clean : int;
  anomalies_flagged : int;
  failed : int;
  reports : case_report list;
}

let case_line r =
  let c = r.case in
  let faults =
    if c.atoms = [] then "fault-free"
    else String.concat " " (List.map atom_flag c.atoms)
  in
  let verdict =
    match r.verdict with
    | Clean -> "clean"
    | Anomaly _ -> "ANOMALY FLAGGED (expected for this baseline)"
    | Failure checks ->
        "FAILED: "
        ^ String.concat ", " (List.map (fun c -> c.check_name) checks)
  in
  Printf.sprintf "case %3d  %-7s %-9s n=%d seed=%-5d %-40s committed=%-4d %s"
    c.index (engine_label c.engine) (workload_label c.workload) c.nodes c.seed
    faults r.committed verdict

let sweep ?(runs = 50) ?(fuzz_seed = 1) ?only ?(quick = false) ?(log = ignore)
    () =
  let indices =
    match only with Some i -> [ i ] | None -> List.init runs Fun.id
  in
  let reports =
    List.map
      (fun index ->
        let case = case_of_index ~fuzz_seed ~quick index in
        let r = run_case ~fuzz_seed ~quick case in
        log (case_line r);
        (match r.verdict with
        | Clean -> ()
        | Anomaly lines ->
            List.iter (fun l -> log ("      " ^ l)) lines
        | Failure checks ->
            List.iter
              (fun c -> log (Printf.sprintf "      FAIL %s: %s" c.check_name c.detail))
              checks;
            (match r.shrunk with
            | Some atoms ->
                log
                  ("      shrunk fault plan: "
                  ^
                  if atoms = [] then "(empty — faults not needed)"
                  else String.concat " " (List.map atom_flag atoms))
            | None -> ());
            List.iter (fun s -> log ("      reproduce: " ^ s)) r.reproducers);
        r)
      indices
  in
  let count p = List.length (List.filter p reports) in
  {
    total = List.length reports;
    clean = count (fun r -> r.verdict = Clean);
    anomalies_flagged =
      count (fun r -> match r.verdict with Anomaly _ -> true | _ -> false);
    failed =
      count (fun r -> match r.verdict with Failure _ -> true | _ -> false);
    reports;
  }

let ok s = s.failed = 0

let pp_summary ppf s =
  Format.fprintf ppf
    "fuzz: %d cases — %d clean, %d expected anomalies flagged, %d FAILED%s"
    s.total s.clean s.anomalies_flagged s.failed
    (if s.failed = 0 then " — strict engines 1SR-clean" else "")
