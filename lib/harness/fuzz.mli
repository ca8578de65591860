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
    case [I] of any sweep. A strict failure also prints
    [threev_sim run] followed by {!Scenario.to_argv} of the scenario fuzz
    ran — under faults with the fault plan first shrunk greedily (dropping
    atoms whose removal keeps the case failing). *)

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

(** One case: its engine kind and the {!Scenario.t} it runs. A strict
    case runs [scenario] through {!Scenario.run}, so its reproducer is
    [threev_sim run] followed by {!Scenario.to_argv}. A positive control
    drives its F1 (no-coordination) or E8 (manual versioning)
    anomaly-seeding shape at the scenario's nodes, rate, read ratio, seed
    and duration, and never prints a [run] reproducer. Replicated
    ([E3v_repl]) cases always crash a data node, failure-detector
    ([E3v_fd]) cases always storm a node's heartbeats, and sharded
    ([E3v_shard]) cases run four replicated shard blocks and always crash a
    replica. *)
type case = { index : int; engine : engine_kind; scenario : Scenario.t }

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
  shrunk : Scenario.atom list option;
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
