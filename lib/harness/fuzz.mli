(** Deterministic schedule-fuzz harness.

    Sweeps seeds × workloads × fault plans × engines, certifies each
    outcome with {!Certify.run} (serializability certifier, atomic
    visibility, and for 3V exact version reads and commuting-sum replay),
    and classifies:

    - {e strict} engines (3V, NC3V, replicated 3V, replicated 3V with the
      heartbeat failure detector, sharded 3V with per-shard coordinators,
      global-2PC) must certify clean on every applicable checker — any
      violation is a [failure];
    - {e expected-anomaly} baselines (no-coordination, manual versioning)
      may be flagged; the cycle witness is recorded, demonstrating that the
      certifier has teeth on histories known to be broken.

    Cases are derived purely from [(fuzz_seed, index)] — the same pair
    always replays the same engine, workload, seed and fault plan, so
    [threev_sim fuzz --fuzz-seed S --only I] is an exact reproducer for
    case [I] of any sweep. On a strict failure under faults the harness
    additionally shrinks the fault plan greedily (dropping atoms whose
    removal keeps the case failing) and renders a standalone
    [threev_sim run ...] command line for the shrunk plan. *)

type engine_kind =
  | E3v
  | E3v_nc
  | E3v_repl
  | E3v_fd
  | E3v_shard
  | E2pc
  | E_nocoord
  | E_manual

(** Short engine label for reports and reproducer command lines
    (e.g. "3v", "2pc"). *)
val engine_label : engine_kind -> string

(** One fault-plan ingredient, kept atomic so a failing plan can be
    shrunk element-wise and rendered back to [threev_sim run] flags. *)
type atom =
  | Loss of float  (** uniform remote-message drop probability *)
  | Dup of float  (** uniform duplication probability *)
  | Partition of int * int * float * float  (** src, dst, from, until *)
  | Partition_set of int list * float * float * bool
      (** set, from, until, oneway: the set is cut off from the rest of the
          cluster for the window — only its outbound links when [oneway] *)
  | Crash of int * float * float  (** node, at, restart *)
  | Coord_crash of float * float  (** at, restart *)
  | Hb_loss of int * float * float * float
      (** node, from, until, prob: drop the node's outgoing heartbeats —
          false-suspicion provocation, protocol traffic untouched *)

(** Renders an atom as the [threev_sim run] flag that reproduces it. *)
val atom_flag : atom -> string

type workload_kind = W_synthetic | W_hospital | W_pos

type case = {
  index : int;
  engine : engine_kind;
  workload : workload_kind;
  nodes : int;
  replicas : int;
      (** replication factor; [> 1] only for [E3v_repl] cases (always at
          least one data-node crash atom) and [E3v_fd] cases (heartbeat
          failure detector on, always at least one heartbeat-loss atom) *)
  shards : int;
      (** shard count; [> 1] only for [E3v_shard] cases (four replicated
          shard blocks, per-shard coordinators, synthetic shard-confined
          workload, always at least one replica-crash atom) *)
  seed : int;  (** simulation + workload RNG seed *)
  fault_seed : int;
  rate : float;
  read_ratio : float;
  nc_ratio : float;
  duration : float;
  atoms : atom list;
}

(** Pure derivation: same [(fuzz_seed, index, quick)] → same case. Engines
    rotate with [index mod 8] so every 8 consecutive indices cover the full
    matrix. *)
val case_of_index : fuzz_seed:int -> quick:bool -> int -> case

type check = Certify.check = { check_name : string; ok : bool; detail : string }

type verdict =
  | Clean  (** every applicable checker passed *)
  | Anomaly of string list
      (** expected-anomaly baseline, flagged as hoped; payload includes the
          rendered cycle witness *)
  | Failure of check list  (** the failed checks only *)

type case_report = {
  case : case;
  verdict : verdict;
  committed : int;
  unfinished : int;
  shrunk : atom list option;
      (** minimal failing fault-atom subset, when shrinking applied *)
  reproducers : string list;  (** command lines, most precise first *)
}

(** [history case] drives [case] under its own fault plan and returns the
    finished history with the shard map and read-vector lookup the
    checkers take (both [None] unless the case is sharded) — the inputs
    {!run_case} checks, for comparing checkers on real histories. *)
val history :
  case ->
  (Txn.Spec.t * Txn.Result.t) list
  * (int -> int) option
  * (int -> int array option) option

(** Run one case end to end (drive, settle, check, shrink on failure). *)
val run_case : fuzz_seed:int -> quick:bool -> case -> case_report

type summary = {
  total : int;
  clean : int;
  anomalies_flagged : int;
  failed : int;
  reports : case_report list;  (** in index order *)
}

(** [sweep ()] runs cases [0 .. runs-1] (or exactly [only]). [log] receives
    one human-readable line per case as it completes, plus witness /
    reproducer blocks for interesting cases. *)
val sweep :
  ?runs:int ->
  ?fuzz_seed:int ->
  ?only:int ->
  ?quick:bool ->
  ?log:(string -> unit) ->
  unit ->
  summary

(** [ok s] — no strict-engine failures. *)
val ok : summary -> bool

(** Multi-line sweep summary: totals per verdict, then each failing case
    with its reproducer command lines. *)
val pp_summary : Format.formatter -> summary -> unit
