(** The experiment registry: one entry per table/figure/claim reproduced.

    Each experiment renders its results as markdown tables (via
    {!Stats.Table}) plus explanatory notes; [threev_sim experiment <id>]
    runs one and [threev_sim experiment all] runs them all. [quick] shrinks
    sweeps and durations for CI-speed runs. Every driven run (all but the
    Table 1 replay behind T1 and F2) is built by {!Scenario.drive}, with
    faults as its plan and pauses, crashes and triggered advancements as
    its pre-drive hook, and published by {!Scenario.publish}.
    [dune runtest] diffs the output of [experiment all --quick] against
    [test/expected/]. See DESIGN.md §3 for the experiment ↔ paper mapping
    and EXPERIMENTS.md for recorded outputs. *)

type t = {
  id : string;  (** "t1", "f1", "f2", "e1" .. "e15", "a1" .. "a4" *)
  title : string;
  paper_ref : string;  (** which part of the paper this reproduces *)
  run : quick:bool -> string;  (** rendered report *)
}

(** All experiments, in presentation order (t1, f1, f2, e1..e15, a1..a4). *)
val all : t list

(** Look an experiment up by id (case-insensitive). *)
val find : string -> t option
