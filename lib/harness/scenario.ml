module Sim = Simul.Sim
module Latency = Netsim.Latency
module Engine = Threev.Engine
module Plan = Fault.Plan

(* ------------------------------------------------------------- drive *)

type _ config =
  | V3 : Engine.config -> Engine.t config
  | Twopc : Baselines.Global_2pc.config -> Baselines.Global_2pc.t config
  | Manual :
      Baselines.Manual_versioning.config
      -> Baselines.Manual_versioning.t config

(* The harness's engine shapes: exponential links of 3 ms mean and 0.5 ms
   of think time unless a caller varies them. *)
let link_latency = Latency.Exponential 0.003
let think_time = 0.0005

let v3 ?(latency = link_latency) ~nodes policy =
  { (Engine.default_config ~nodes) with Engine.latency; think_time; policy }

let reliable cfg =
  { cfg with Engine.reliable_channel = true; retransmit_timeout = 0.02 }

let twopc ?(deadlock_timeout = 0.05) ~nodes () =
  Twopc
    {
      Baselines.Global_2pc.nodes;
      latency = link_latency;
      think_time;
      deadlock_timeout;
    }

let manual_schedule ?(latency = link_latency) ~nodes schedule =
  Manual { Baselines.Manual_versioning.nodes; latency; think_time; schedule }

let nocoord ~nodes = manual_schedule ~nodes Unversioned

let manual ?latency ?(safety_delay = 0.2) ~nodes ~period () =
  manual_schedule ?latency ~nodes (Periodic { period; safety_delay })

type 'e driven = { sim : Sim.t; engine : 'e; outcome : Runner.outcome }

let drive (type e) ?plan ?(before = fun _ _ -> ()) (config : e config) gen
    (setup : Runner.setup) : e driven =
  (match (config, plan) with
  | Manual _, Some _ ->
      invalid_arg "Scenario.drive: this baseline takes no fault plan"
  | _ -> ());
  let sim = Sim.create ~seed:setup.Runner.seed () in
  let faults = Option.map (Fault.Injector.create sim) plan in
  let ((engine, packed) : e * Txn.Engine_intf.packed) =
    match config with
    | V3 cfg ->
        let e = Engine.create sim cfg ?faults () in
        (e, Engine.packed e)
    | Twopc cfg ->
        let e = Baselines.Global_2pc.create ?faults sim cfg in
        (e, Baselines.Global_2pc.packed e)
    | Manual cfg ->
        let e = Baselines.Manual_versioning.create sim cfg in
        (e, Baselines.Manual_versioning.packed e)
  in
  before sim engine;
  { sim; engine; outcome = Runner.drive sim packed gen setup }

let publish d =
  ignore (Engine.advance d.engine);
  ignore (Engine.advance d.engine);
  ignore (Sim.run d.sim ~until:(Sim.now d.sim +. 20.) ())

(* ------------------------------------------------------ the record *)

type engine = E3v | E2pc | E_nocoord | E_manual
type workload = Hospital | Calls | Pos | Synthetic

type atom =
  | Loss of float
  | Dup of float
  | Partition of int * int * float * float
  | Partition_set of int list * float * float * bool
  | Crash of int * float * float
  | Coord_crash of float * float
  | Data_crash of int * float * float
  | Hb_loss of int * float * float * float

type t = {
  engine : engine;
  workload : workload;
  nodes : int;
  replicas : int;
  shards : int;
  rate : float;
  duration : float;
  seed : int;
  period : float;
  nc_ratio : float;
  read_ratio : float;
  phase_deadline : float;
  hb_period : float;
  hb_timeout : float;
  fault_seed : int;
  faults : atom list;
}

let default =
  {
    engine = E3v;
    workload = Hospital;
    nodes = 4;
    replicas = 1;
    shards = 1;
    rate = 400.;
    duration = 2.0;
    seed = 1;
    period = 0.2;
    nc_ratio = 0.;
    read_ratio = 0.25;
    phase_deadline = infinity;
    hb_period = 0.;
    hb_timeout = 0.1;
    fault_seed = 42;
    faults = [];
  }

let engine_label = function
  | E3v -> "3v"
  | E2pc -> "2pc"
  | E_nocoord -> "nocoord"
  | E_manual -> "manual"

let workload_label = function
  | Hospital -> "hospital"
  | Calls -> "calls"
  | Pos -> "pos"
  | Synthetic -> "synthetic"

(* ------------------------------------------------- the atom grammar *)

(* SRC:DST:FROM:UNTIL, or SET@FROM:UNTIL[:oneway] with SET comma-separated
   node ids. *)
let parse_partition s =
  let link a b c d = Partition (a, b, c, d) in
  match Scanf.sscanf_opt s "%d:%d:%f:%f%!" link with
  | Some _ as p -> p
  | None -> (
      match String.index_opt s '@' with
      | None -> None
      | Some i -> (
          try
            let set =
              String.sub s 0 i |> String.split_on_char ','
              |> List.map (fun x -> int_of_string (String.trim x))
            in
            let window oneway f u =
              Some
                (Partition_set
                   (set, float_of_string f, float_of_string u, oneway))
            in
            match
              String.split_on_char ':'
                (String.sub s (i + 1) (String.length s - i - 1))
            with
            | [ f; u ] -> window false f u
            | [ f; u; "oneway" ] -> window true f u
            | _ -> None
          with Failure _ -> None))

(* Flag, value syntax, parser: each fault flag's value reads back from
   [atom_arg]'s rendering of it. *)
let grammar =
  [
    ( "--partition",
      "SRC:DST:FROM:UNTIL | SET@FROM:UNTIL[:oneway]",
      parse_partition );
    ( "--crash",
      "NODE@TIME:RESTART",
      fun s -> Scanf.sscanf_opt s "%d@%f:%f%!" (fun n a r -> Crash (n, a, r)) );
    ( "--coord-crash",
      "TIME:RESTART",
      fun s -> Scanf.sscanf_opt s "%f:%f%!" (fun a r -> Coord_crash (a, r)) );
    ( "--data-crash",
      "GROUP@TIME:RESTART",
      fun s ->
        Scanf.sscanf_opt s "%d@%f:%f%!" (fun g a r -> Data_crash (g, a, r)) );
    ( "--hb-loss",
      "NODE@FROM:UNTIL[:PROB]",
      fun s ->
        let loss n f u p = Hb_loss (n, f, u, p) in
        match Scanf.sscanf_opt s "%d@%f:%f:%f%!" loss with
        | Some _ as h -> h
        | None -> Scanf.sscanf_opt s "%d@%f:%f%!" (fun n f u -> loss n f u 1.)
    );
  ]

let fault_flags = List.map (fun (flag, _, _) -> flag) grammar

let parse_atom flag s =
  match List.find_opt (fun (f, _, _) -> f = flag) grammar with
  | None -> invalid_arg ("Scenario.parse_atom: not a fault flag: " ^ flag)
  | Some (_, syntax, parse) -> (
      match parse s with
      | Some a -> Ok a
      | None ->
          Error
            (Printf.sprintf "bad %s spec %S; usage: %s %s"
               (String.sub flag 2 (String.length flag - 2))
               s flag syntax))

let atom_arg = function
  | Loss p -> ("--drop-prob", Printf.sprintf "%g" p)
  | Dup p -> ("--dup-prob", Printf.sprintf "%g" p)
  | Partition (s, d, f, u) ->
      ("--partition", Printf.sprintf "%d:%d:%g:%g" s d f u)
  | Partition_set (set, f, u, oneway) ->
      ( "--partition",
        Printf.sprintf "%s@%g:%g%s"
          (String.concat "," (List.map string_of_int set))
          f u
          (if oneway then ":oneway" else "") )
  | Crash (n, a, r) -> ("--crash", Printf.sprintf "%d@%g:%g" n a r)
  | Coord_crash (a, r) -> ("--coord-crash", Printf.sprintf "%g:%g" a r)
  | Data_crash (g, a, r) -> ("--data-crash", Printf.sprintf "%d@%g:%g" g a r)
  | Hb_loss (n, f, u, p) ->
      ( "--hb-loss",
        if p >= 1. then Printf.sprintf "%d@%g:%g" n f u
        else Printf.sprintf "%d@%g:%g:%g" n f u p )

(* ------------------------------------------------- plan and checks *)

let plan t =
  if t.faults = [] then None
  else
    let in_range flag ~limit n =
      if n < 0 || n >= limit then
        invalid_arg
          (Printf.sprintf "%s: node %d outside 0..%d" flag n (limit - 1))
    in
    let each f = List.concat_map f t.faults in
    let drop = List.find_map (function Loss p -> Some p | _ -> None) t.faults
    and dup = List.find_map (function Dup p -> Some p | _ -> None) t.faults in
    (* Rules go by kind, heartbeat losses before partitions, so a plan
       does not depend on how different flags interleave. The injector's
       first-drop-wins evaluation makes the order visible through the
       fault RNG when a partition and a heartbeat loss cover one node. *)
    let rules =
      (if drop = None && dup = None then []
       else Plan.uniform_loss ?dup ~drop:(Option.value drop ~default:0.) ())
      @ each (function
          | Hb_loss (src, from_, until_, prob) ->
              in_range "--hb-loss" ~limit:t.nodes src;
              Plan.heartbeat_loss ~src ~prob ~from_ ~until_ ()
          | _ -> [])
      @ each (function
          (* The engine's endpoints are the data nodes, then one
             coordinator per shard at ids [nodes .. nodes+shards-1]. *)
          | Partition (src, dst, from_, until_) ->
              in_range "--partition" ~limit:(t.nodes + t.shards) src;
              in_range "--partition" ~limit:(t.nodes + t.shards) dst;
              [ Plan.partition ~src ~dst ~from_ ~until_ ]
          | Partition_set (set, from_, until_, oneway) ->
              Plan.partition_set ~universe:(t.nodes + t.shards) ~set ~oneway
                ~from_ ~until_ ()
          | _ -> [])
    in
    let crashes =
      each (function
        | Crash (node, at, restart) ->
            in_range "--crash" ~limit:t.nodes node;
            [ Plan.crash ~node ~at ~restart ]
        | _ -> [])
      @ each (function
          | Data_crash (group, at, restart) ->
              let placement =
                Repl.Placement.create ~nodes:t.nodes ~replicas:t.replicas
              in
              if group < 0 || group >= Repl.Placement.group_count placement
              then
                invalid_arg
                  (Printf.sprintf "--data-crash: group %d out of range" group);
              Plan.crash_replicas
                ~members:(Repl.Placement.members placement group)
                ~keep:1 ~at ~restart
          | _ -> [])
    in
    let coord_crashes =
      each (function
        | Coord_crash (at, restart) -> [ Plan.coord_crash ~at ~restart ]
        | _ -> [])
    in
    Some (Plan.make ~seed:t.fault_seed ~rules ~crashes ~coord_crashes ())

let validate t =
  let has p = List.exists p t.faults in
  let fail =
    if t.rate <= 0. then Some "--rate must be positive"
    else if t.period <= 0. && (t.engine = E3v || t.engine = E_manual) then
      Some "--advancement-period must be positive"
    else if t.shards < 1 then Some "--shards must be at least 1"
    else if t.shards > t.nodes || t.nodes mod t.shards <> 0 then
      Some "--shards must divide --nodes evenly"
    else if t.shards > 1 && t.engine <> E3v then
      Some "--shards supports only --engine 3v"
    else if t.shards > 1 && t.workload <> Synthetic then
      Some
        "--shards > 1 requires --workload synthetic (the shard-aware \
         generator; other workloads emit cross-shard update trees the engine \
         rejects)"
    else if t.shards > 1 && t.nc_ratio > 0. then
      Some "--shards > 1 requires --nc-ratio 0"
    else if t.faults <> [] && (t.engine = E_nocoord || t.engine = E_manual) then
      Some "fault-injection flags support only --engine 3v or 2pc"
    else if has (function Coord_crash _ -> true | _ -> false) && t.engine <> E3v
    then Some "--coord-crash supports only --engine 3v"
    else if t.replicas <> 1 && t.engine <> E3v then
      Some "--replicas supports only --engine 3v"
    else if t.replicas < 1 || t.replicas > t.nodes then
      Some "--replicas must be in 1..nodes"
    else if t.nodes / t.shards mod t.replicas <> 0 then
      Some
        "--replicas must divide each shard block (--nodes / --shards) evenly: \
         a replica group must not straddle a shard boundary"
    else if t.replicas > 1 && t.nc_ratio > 0. then
      Some "--replicas > 1 requires --nc-ratio 0 (commuting core only)"
    else if has (function Data_crash _ -> true | _ -> false) && t.replicas <= 1
    then Some "--data-crash requires --replicas > 1"
    else if t.phase_deadline <> infinity && t.phase_deadline <= 0. then
      Some "--phase-deadline must be positive"
    else if t.hb_period < 0. then Some "--hb-period must be non-negative"
    else if t.hb_period > 0. && t.engine <> E3v then
      Some "--hb-period supports only --engine 3v"
    else if t.engine = E3v && t.hb_timeout <= t.hb_period then
      Some "--hb-timeout must exceed --hb-period"
    else if has (function Hb_loss _ -> true | _ -> false) && t.hb_period <= 0.
    then Some "--hb-loss requires --hb-period > 0"
    else None
  in
  match fail with
  | Some m -> Error m
  | None -> (
      match plan t with _ -> Ok () | exception Invalid_argument m -> Error m)

(* ------------------------------------------------------ assembly *)

type any_config = Config : 'e config -> any_config

let engine_config t =
  let nodes = t.nodes in
  match t.engine with
  | E3v ->
      let cfg =
        {
          (v3 ~nodes (Threev.Policy.Periodic t.period)) with
          nc_mode = t.nc_ratio > 0.;
          phase_deadline = t.phase_deadline;
          replicas = t.replicas;
          shards = t.shards;
          hb_period = t.hb_period;
          hb_timeout = t.hb_timeout;
        }
      in
      (* Any fault can drop or duplicate messages. *)
      Config (V3 (if t.faults = [] then cfg else reliable cfg))
  | E2pc -> Config (twopc ~nodes ())
  | E_nocoord -> Config (nocoord ~nodes)
  | E_manual -> Config (manual ~nodes ~period:t.period ())

let generator t =
  let nodes = t.nodes and arrival_rate = t.rate and read_ratio = t.read_ratio in
  match t.workload with
  | Hospital ->
      Workload.Hospital.generator
        {
          (Workload.Hospital.default ~nodes) with
          Workload.Hospital.arrival_rate;
          read_ratio;
        }
  | Calls ->
      Workload.Call_recording.generator
        {
          (Workload.Call_recording.default ~nodes) with
          Workload.Call_recording.arrival_rate;
          read_ratio;
        }
  | Pos ->
      Workload.Point_of_sale.generator
        {
          (Workload.Point_of_sale.default ~nodes) with
          Workload.Point_of_sale.arrival_rate;
          read_ratio;
          nc_ratio = t.nc_ratio;
        }
  | Synthetic ->
      Workload.Synthetic.generator
        {
          (Workload.Synthetic.default ~nodes) with
          Workload.Synthetic.arrival_rate;
          shards = t.shards;
          read_ratio;
          nc_ratio = t.nc_ratio;
        }

let setup t =
  {
    Runner.default_setup with
    Runner.seed = t.seed;
    duration = t.duration;
    settle = 5.0;
  }

let to_argv t =
  let g = Printf.sprintf "%g" in
  let unless_default field flag show =
    if field t = field default then [] else [ flag; show (field t) ]
  in
  [
    "--engine"; engine_label t.engine; "--workload"; workload_label t.workload;
    "--nodes"; string_of_int t.nodes; "--rate"; g t.rate; "--duration";
    g t.duration; "--seed"; string_of_int t.seed; "--read-ratio";
    g t.read_ratio;
  ]
  @ unless_default (fun t -> t.replicas) "--replicas" string_of_int
  @ unless_default (fun t -> t.shards) "--shards" string_of_int
  @ unless_default (fun t -> t.nc_ratio) "--nc-ratio" g
  @ unless_default (fun t -> t.period) "--advancement-period" g
  @ unless_default (fun t -> t.hb_period) "--hb-period" g
  @ unless_default (fun t -> t.hb_timeout) "--hb-timeout" g
  @ unless_default (fun t -> t.phase_deadline) "--phase-deadline" g
  @
  if t.faults = [] then []
  else
    [ "--fault-seed"; string_of_int t.fault_seed ]
    @ List.concat_map
        (fun a ->
          let flag, value = atom_arg a in
          [ flag; value ])
        t.faults

let run t =
  match engine_config t with
  | Config config ->
      let d = drive ?plan:(plan t) config (generator t) (setup t) in
      let threev : type e. e config -> e -> Engine.t option =
       fun c e -> match c with V3 _ -> Some e | _ -> None
      in
      { d with engine = threev config d.engine }

let certify d =
  Option.iter (fun engine -> publish { d with engine }) d.engine;
  Certify.run ?engine:d.engine ~unfinished:d.outcome.Runner.unfinished
    d.outcome.Runner.history
