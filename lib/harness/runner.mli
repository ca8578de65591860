(** Open-loop workload driver: engine × generator → measured outcome.

    [drive] runs a client that submits transactions with Poisson
    interarrivals at the generator's rate for [duration] virtual seconds,
    lets the simulation settle for [settle] more, then harvests results.
    The same driver runs every engine, so outcomes are directly
    comparable. *)

type setup = {
  seed : int;
  duration : float;  (** submission window, virtual seconds *)
  settle : float;  (** extra virtual time for in-flight work to finish *)
  max_txns : int;  (** hard cap on submissions *)
}

(** [{seed = 1; duration = 2.0; settle = 5.0; max_txns = 100_000}]. *)
val default_setup : setup

type outcome = {
  engine_name : string;
  history : (Txn.Spec.t * Txn.Result.t) list;  (** finished transactions *)
  submitted : int;
  committed : int;
  aborted : int;
  unfinished : int;  (** submissions whose result never arrived *)
  duration : float;  (** length of the submission window *)
  throughput : float;  (** committed transactions per virtual second *)
  read_latency : Stats.Histogram.t;  (** settlement latency, read-only txns *)
  update_latency : Stats.Histogram.t;  (** settlement latency, updates *)
  read_blocking : Stats.Histogram.t;  (** user-blocking latency, reads *)
  update_blocking : Stats.Histogram.t;  (** user-blocking latency, updates *)
  in_flight : Stats.Series.t;
      (** (virtual time, submitted-but-unresolved transactions), sampled
          every 50 ms — makes congestion and outage backlogs visible *)
  stats : Stats.Counter_set.t;  (** engine instrumentation snapshot *)
}

(** [drive sim engine gen setup] runs the full experiment on [sim] (the
    engine must have been created on the same simulation). Returns after the
    simulation settles. *)
val drive :
  Simul.Sim.t -> Txn.Engine_intf.packed -> Workload.Generator.t -> setup ->
  outcome

(** Atomic-visibility report for an outcome's history. *)
val atomicity : outcome -> Checker.Atomicity.report

(** Staleness report for an outcome's history. *)
val staleness : outcome -> Checker.Staleness.report
