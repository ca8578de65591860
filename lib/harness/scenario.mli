(** Scenarios: how every harness run is built and driven.

    Two layers:

    - {!drive} builds one engine on a fresh simulation, installs an
      optional fault plan, runs an optional pre-drive hook and drives a
      generator through {!Runner.drive}; {!publish} is the one post-run
      publication of a 3V engine. The experiments, fuzz's positive
      controls and {!run} all drive through them.
    - A {!t} is exactly [threev_sim run]'s parameter set: {!validate}
      holds the CLI's cross-flag checks, the fault-atom grammar parses and
      prints each fault flag, {!plan} is the one plan assembly and
      {!to_argv} renders a scenario as [run] flags. Fuzz's strict cases
      carry a scenario and run it through {!run}, so [threev_sim run]
      followed by {!to_argv} replays exactly what fuzz ran. *)

(** {1 Driving an engine} *)

(** An engine configuration, indexed by the engine it builds. *)
type _ config =
  | V3 : Threev.Engine.config -> Threev.Engine.t config
  | Twopc : Baselines.Global_2pc.config -> Baselines.Global_2pc.t config
  | Nocoord : Baselines.No_coord.config -> Baselines.No_coord.t config
  | Manual :
      Baselines.Manual_versioning.config
      -> Baselines.Manual_versioning.t config

(** {2 Engine shapes}

    Every harness engine runs on exponential links of 3 ms mean with
    0.5 ms of think time unless its caller varies them. *)

(** [v3 ~nodes policy] is the 3V shape, for a caller to edit further. *)
val v3 :
  ?latency:Netsim.Latency.t ->
  nodes:int ->
  Threev.Policy.t ->
  Threev.Engine.config

(** [reliable cfg] turns on the reliable channel (acks and dedup), with a
    first retransmission after 20 ms: the hardening of every faulted run. *)
val reliable : Threev.Engine.config -> Threev.Engine.config

(** Global 2PC, with a 50 ms deadlock timeout unless given. *)
val twopc :
  ?deadlock_timeout:float -> nodes:int -> unit -> Baselines.Global_2pc.t config

(** The no-coordination baseline. *)
val nocoord : nodes:int -> Baselines.No_coord.t config

(** Manual versioning with a 0.2 s safety delay unless given. *)
val manual :
  ?latency:Netsim.Latency.t ->
  ?safety_delay:float ->
  nodes:int ->
  period:float ->
  unit ->
  Baselines.Manual_versioning.t config

(** A finished drive: the simulation, the engine built on it and the
    measured outcome. *)
type 'e driven = { sim : Simul.Sim.t; engine : 'e; outcome : Runner.outcome }

(** [drive ?plan ?before config gen setup] builds [config]'s engine on a
    simulation seeded with [setup.seed], with a {!Fault.Injector} for
    [plan] when one is given, calls [before] on the simulation and the
    engine (to schedule pauses, crashes or advancements), then drives
    [gen] for [setup].
    @raise Invalid_argument if [plan] is given for a baseline that takes
    no faults (nocoord, manual). *)
val drive :
  ?plan:Fault.Plan.t ->
  ?before:(Simul.Sim.t -> 'e -> unit) ->
  'e config ->
  Workload.Generator.t ->
  Runner.setup ->
  'e driven

(** [publish d] runs two advancements and 20 more virtual seconds, so
    every committed 3V update is published and garbage collection has
    settled the stores that replay reads. *)
val publish : Threev.Engine.t driven -> unit

(** {1 The [threev_sim run] parameter set} *)

type engine = E3v | E2pc | E_nocoord | E_manual
type workload = Hospital | Calls | Pos | Synthetic

(** One fault, as one [threev_sim run] fault flag. *)
type atom =
  | Loss of float  (** [--drop-prob P]: uniform remote-message drop *)
  | Dup of float  (** [--dup-prob P]: uniform duplication *)
  | Partition of int * int * float * float
      (** [--partition SRC:DST:FROM:UNTIL]: one directed link down *)
  | Partition_set of int list * float * float * bool
      (** [--partition SET@FROM:UNTIL[:oneway]]: the set is cut off from
          the rest of the cluster for the window — only its outbound
          links when [oneway] *)
  | Crash of int * float * float  (** [--crash NODE@AT:RESTART] *)
  | Coord_crash of float * float  (** [--coord-crash AT:RESTART] *)
  | Data_crash of int * float * float
      (** [--data-crash GROUP@AT:RESTART]: all but one replica of the
          group down *)
  | Hb_loss of int * float * float * float
      (** [--hb-loss NODE@FROM:UNTIL[:PROB]]: the node's outgoing
          heartbeats dropped — false-suspicion provocation, protocol
          traffic untouched *)

type t = {
  engine : engine;
  workload : workload;
  nodes : int;
  replicas : int;
  shards : int;
  rate : float;  (** arrivals per virtual second *)
  duration : float;  (** submission window, virtual seconds *)
  seed : int;  (** simulation and workload seed *)
  period : float;  (** 3V advancement / manual versioning period *)
  nc_ratio : float;
  read_ratio : float;
  phase_deadline : float;
  hb_period : float;  (** 0 = failure detector off *)
  hb_timeout : float;
  fault_seed : int;
  faults : atom list;  (** in flag order; empty = fault-free *)
}

(** [threev_sim run]'s defaults: 3v, hospital, 4 nodes, 400/s for 2 s,
    seed 1, period 0.2, read ratio 0.25, fault seed 42, no faults. *)
val default : t

(** The [--engine] value naming an engine ("3v", "2pc", ...). *)
val engine_label : engine -> string

(** The [--workload] value naming a workload ("hospital", ...). *)
val workload_label : workload -> string

(** The fault flags {!parse_atom} reads, each taking one spec string. *)
val fault_flags : string list

(** [parse_atom flag spec] reads the value of one of {!fault_flags}; the
    error is one line naming the flag's syntax. *)
val parse_atom : string -> string -> (atom, string) result

(** [atom_arg a] is the flag and value that {!parse_atom} reads back as
    [a] ([--drop-prob] and [--dup-prob] are plain floats). *)
val atom_arg : atom -> string * string

(** [validate t] is [Error msg], one line, when [threev_sim run] rejects
    [t]: a non-positive rate, a non-positive period or a heartbeat timeout
    not above the heartbeat period for an engine that reads them, flags
    the engine does not support, inconsistent shard/replica shapes, nodes
    or groups outside the cluster, and fault plans {!Fault.Plan.make}
    rejects. *)
val validate : t -> (unit, string) result

(** The fault plan [t.faults] assembles to, seeded with [t.fault_seed];
    [None] when fault-free. Rules are ordered by kind (loss, heartbeat
    loss, partitions), so the plan does not depend on how flags of
    different kinds interleave.
    @raise Invalid_argument where {!validate} reports an error. *)
val plan : t -> Fault.Plan.t option

(** Any engine configuration. *)
type any_config = Config : 'e config -> any_config

(** The engine configuration [t] runs, built from the shapes above. The
    reliable channel is on exactly when [t] has faults. *)
val engine_config : t -> any_config

(** The workload generator [t] runs. *)
val generator : t -> Workload.Generator.t

(** The run setup: [t]'s seed and duration, 5 s of settling. *)
val setup : t -> Runner.setup

(** [to_argv t] renders [t] as [threev_sim run] arguments: engine,
    workload, nodes, rate, duration, seed and read ratio always, every
    other field only when it differs from {!default}, the fault seed only
    with faults, and the faults last in [t.faults] order. *)
val to_argv : t -> string list

(** [run t] drives [t]; the engine is returned for a 3V scenario. *)
val run : t -> Threev.Engine.t option driven

(** [certify d] publishes a 3V run and certifies it with {!Certify.run},
    settled check included. *)
val certify : Threev.Engine.t option driven -> Certify.t
