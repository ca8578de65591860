(** The [threev_sim run] command line, as a library so the test suite can
    evaluate it: the cmdliner term that parses a {!Harness.Scenario.t},
    and the argv pre-scan that turns a malformed fault spec into a
    one-line usage message and exit code 2 (instead of cmdliner's
    multi-line block and exit 124). *)

(** [run]'s flags, parsed into the scenario they describe. Defaults are
    {!Harness.Scenario.default}; [--drop-prob] and [--dup-prob] add a
    fault only when positive. *)
val run_term : Harness.Scenario.t Cmdliner.Term.t

(** [prevalidate argv] scans [argv] for the fault-spec flags
    ({!Harness.Scenario.fault_flags}, both [--flag V] and [--flag=V]
    forms) and returns the first malformed occurrence's one-line message,
    [None] when all parse. Everything else is left to cmdliner. *)
val prevalidate : string array -> string option
