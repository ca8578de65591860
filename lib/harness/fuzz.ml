module Engine = Threev.Engine

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

type case = { index : int; engine : engine_kind; scenario : Scenario.t }

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
    | 0 -> Scenario.Loss (round3 (0.02 +. Random.State.float rng 0.06))
    | 1 -> Scenario.Dup (round3 (0.02 +. Random.State.float rng 0.06))
    | 2 ->
        let src = Random.State.int rng nodes in
        let dst = (src + 1 + Random.State.int rng (nodes - 1)) mod nodes in
        let from_ = time () in
        let until_ = round3 (from_ +. 0.1 +. Random.State.float rng 0.15) in
        Scenario.Partition (src, dst, from_, until_)
    | 3 ->
        let at = time () in
        Scenario.Crash
          (Random.State.int rng nodes, at,
           round3 (at +. 0.1 +. Random.State.float rng 0.15))
    | _ ->
        let at = time () in
        Scenario.Coord_crash
          (at, round3 (at +. 0.1 +. Random.State.float rng 0.2))
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
    Scenario.Crash
      ( Random.State.int rng nodes,
        at,
        round3 (at +. 0.1 +. Random.State.float rng 0.15) )
  in
  if Random.State.bool rng then
    [ Scenario.Loss (round3 (0.02 +. Random.State.float rng 0.04)); crash ]
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
    Scenario.Crash
      ( Random.State.int rng nodes,
        at,
        round3 (at +. 0.1 +. Random.State.float rng 0.15) )
  in
  match Random.State.int rng 3 with
  | 0 -> [ crash ]
  | 1 -> [ Scenario.Loss (round3 (0.02 +. Random.State.float rng 0.04)); crash ]
  | _ ->
      let a = time () in
      [
        crash;
        Scenario.Coord_crash
          (a, round3 (a +. 0.1 +. Random.State.float rng 0.2));
      ]

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
    Scenario.Hb_loss
      (Random.State.int rng nodes, from_, until_, pick rng [ 1.; 1.; 0.8 ])
  in
  match Random.State.int rng 3 with
  | 0 -> [ storm ]
  | 1 ->
      let at, restart = window ~len:0.15 in
      [ storm; Scenario.Crash (Random.State.int rng nodes, at, restart) ]
  | _ ->
      let f, u = window ~len:0.15 in
      [
        storm;
        Scenario.Partition_set ([ Random.State.int rng nodes ], f, u, true);
      ]

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
        ( pick rng [ Scenario.Synthetic; Scenario.Pos ],
          pick rng [ 200.; 300. ],
          pick rng [ 0.2; 0.25; 0.3 ],
          pick rng [ 0.05; 0.1; 0.2 ] )
    | E3v | E3v_repl | E3v_fd | E2pc ->
        (* Replication covers the commuting core only, so nc_ratio stays 0
           for E3v_repl / E3v_fd (the engine rejects nc_mode with
           replicas > 1). *)
        ( pick rng [ Scenario.Synthetic; Scenario.Hospital; Scenario.Pos ],
          pick rng [ 200.; 300.; 400. ],
          pick rng [ 0.2; 0.25; 0.3 ],
          0. )
    | E3v_shard ->
        (* Only the synthetic generator is shard-aware (updates confined
           to one shard block, reads free to span); the higher read ratio
           keeps cross-shard vectored reads frequent. *)
        ( Scenario.Synthetic,
          pick rng [ 200.; 300.; 400. ],
          pick rng [ 0.3; 0.35; 0.4 ],
          0. )
    | E_nocoord ->
        (* The F1 front-end shape: reliably produces partial reads. *)
        (Scenario.Hospital, 400., 0.3, 0.)
    | E_manual ->
        (* The E8 straggler shape: small safety delay vs late postings. *)
        (Scenario.Hospital, 800., 0.4, 0.)
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
          [ Scenario.Loss (round3 (0.02 +. Random.State.float rng 0.04)) ]
        else []
    | _ -> []
  in
  let scenario =
    {
      Scenario.default with
      engine =
        (match engine with
        | E2pc -> Scenario.E2pc
        | E_nocoord -> E_nocoord
        | E_manual -> E_manual
        | E3v | E3v_nc | E3v_repl | E3v_fd | E3v_shard -> E3v);
      workload;
      nodes;
      replicas;
      shards;
      seed;
      fault_seed;
      rate;
      read_ratio;
      nc_ratio;
      duration;
      faults = atoms;
    }
  in
  (* The failure-detector cases run the E15 detector shape. *)
  let scenario =
    if engine = E3v_fd then
      {
        scenario with
        hb_period = 0.02;
        hb_timeout = 0.08;
        phase_deadline = 0.5;
      }
    else scenario
  in
  { index; engine; scenario }

(* --------------------------------------------------------- execution *)

type check = Certify.check = { check_name : string; ok : bool; detail : string }

type verdict = Clean | Anomaly of string list | Failure of check list

type case_report = {
  case : case;
  verdict : verdict;
  committed : int;
  unfinished : int;
  shrunk : Scenario.atom list option;
  reproducers : string list;
}

let strict = function
  | E3v | E3v_nc | E3v_repl | E3v_fd | E3v_shard | E2pc -> true
  | E_nocoord | E_manual -> false

(* The positive controls drive the proven anomaly-seeding shapes of F1
   (no-coordination) and E8 (manual versioning) at the scenario's size,
   rate, read ratio and seed. *)
let control (sc : Scenario.t) =
  let nodes = sc.nodes in
  let hospital =
    {
      (Workload.Hospital.default ~nodes) with
      arrival_rate = sc.rate;
      read_ratio = sc.read_ratio;
    }
  in
  let drive config params =
    let (d : _ Scenario.driven) =
      Scenario.drive config
        (Workload.Hospital.generator params)
        (Scenario.setup sc)
    in
    { d with engine = None }
  in
  if sc.engine = Scenario.E_nocoord then
    drive (Scenario.nocoord ~nodes)
      { hospital with front_end = true; visit_fanout = 2 }
  else
    drive
      (Scenario.manual
         ~latency:(Netsim.Latency.Uniform (0.0005, 0.012))
         ~safety_delay:(if sc.seed land 1 = 0 then 0. else 0.005)
         ~nodes ~period:0.2 ())
      { hospital with patients = 25; visit_fanout = 3; post_delay = 0.08 }

(* A strict case runs its scenario exactly as `threev_sim run` does. *)
let run case =
  if strict case.engine then Scenario.run case.scenario
  else control case.scenario

(* Per-shard version numbers are incomparable across shards: the checkers
   order only same-shard versions and fence exact-version reads per key by
   the assigned read vector. *)
let history case =
  let d = run case in
  let sharded f =
    if case.scenario.shards > 1 then Option.map f d.Scenario.engine else None
  in
  ( d.outcome.Runner.history,
    sharded (fun e n -> Engine.shard_of_node e ~node:n),
    sharded (fun e txn -> Engine.assigned_vector e ~txn) )

(* Drive [case] and certify it; strict engines must also settle every
   transaction. *)
let execute case =
  let d = run case in
  let cert =
    if strict case.engine then Scenario.certify d
    else Certify.run d.Scenario.outcome.Runner.history
  in
  (d.outcome, cert.Certify.checks)

(* ----------------------------------------------------------- shrink *)

let with_faults case faults =
  { case with scenario = { case.scenario with faults } }

let fails case atoms =
  match execute (with_faults case atoms) with
  | exception _ -> true
  | _, checks -> List.exists (fun c -> not c.ok) checks

(* Greedy delta-debugging: drop each atom in turn; keep the drop whenever
   the case still fails without it. *)
let shrink case =
  let rec go kept = function
    | [] -> kept
    | a :: rest ->
        if fails case (kept @ rest) then go kept rest
        else go (kept @ [ a ]) rest
  in
  go [] case.scenario.faults

(* ------------------------------------------------------- reproducers *)

let fuzz_reproducer ~fuzz_seed ~quick case =
  Printf.sprintf "threev_sim fuzz --fuzz-seed %d --only %d%s" fuzz_seed
    case.index
    (if quick then " --quick" else "")

(* The `threev_sim run` line that replays [case]'s scenario with [faults]. *)
let run_line case faults =
  String.concat " "
    ("threev_sim run" :: Scenario.to_argv (with_faults case faults).scenario)

let flags atoms =
  String.concat " "
    (List.map
       (fun a ->
         let flag, value = Scenario.atom_arg a in
         flag ^ " " ^ value)
       atoms)

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
  let faults = case.scenario.faults in
  match execute case with
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
          (if strict case.engine then [ run_line case faults ] else [])
  | outcome, checks ->
      let failed = List.filter (fun c -> not c.ok) checks in
      let committed = outcome.Runner.committed in
      let unfinished = outcome.Runner.unfinished in
      if failed = [] then
        finish ~verdict:Clean ~committed ~unfinished ~shrunk:None
          ~extra_repro:[]
      else if strict case.engine then begin
        let shrunk = if faults = [] then None else Some (shrink case) in
        finish ~verdict:(Failure failed) ~committed ~unfinished ~shrunk
          ~extra_repro:
            [ run_line case (Option.value shrunk ~default:faults) ]
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
  let c = r.case and sc = r.case.scenario in
  let faults = if sc.faults = [] then "fault-free" else flags sc.faults in
  let verdict =
    match r.verdict with
    | Clean -> "clean"
    | Anomaly _ -> "ANOMALY FLAGGED (expected for this baseline)"
    | Failure checks ->
        "FAILED: "
        ^ String.concat ", " (List.map (fun c -> c.check_name) checks)
  in
  Printf.sprintf "case %3d  %-7s %-9s n=%d seed=%-5d %-40s committed=%-4d %s"
    c.index (engine_label c.engine)
    (Scenario.workload_label sc.workload)
    sc.nodes sc.seed faults r.committed verdict

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
                  else flags atoms)
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
