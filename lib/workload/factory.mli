(** Automated-factory operations monitoring (paper §6, example (a)).

    Production lines are nodes. Machines stream {e observations}: each
    recording appends a sensor reading to the machine's log, increments the
    machine's piece count, and bumps the line's shift total — the
    insert-detail-plus-update-summary shape of data recording systems. A
    {e shift report} reads every line's total plus a sampled machine;
    a {e counter reset} (maintenance) overwrites a machine's piece count —
    a non-commuting update exercising NC3V, controlled by [reset_ratio]. *)

type params = {
  lines : int;  (** = number of nodes *)
  machines_per_line : int;
  read_ratio : float;
  reset_ratio : float;  (** fraction of updates that are counter resets *)
  arrival_rate : float;
  zipf_s : float;  (** machine activity skew *)
}

(** [default ~nodes] is the stock parameter set for [nodes] production
    lines (observation-heavy mix, occasional counter resets). *)
val default : nodes:int -> params

(** [generator p] is the factory-monitoring transaction stream for [p]. *)
val generator : params -> Generator.t
