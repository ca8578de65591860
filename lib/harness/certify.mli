(** Certification of a finished run: the one place the offline checkers
    are applied to a history.

    [run] runs, in this order:

    - the 1SR certifier, with the engine's shard map, which must also
      account for every observed writer tag (no unknown tags);
    - atomic visibility;
    - for a 3V run (one given its [engine]): exact version reads, fenced
      by the read vectors the engine assigned, and replay of the history
      against the engine's settled stores;
    - when [unfinished] is given: every submitted transaction settled.

    Fuzz, the experiments, the CLI and the tests all certify through it,
    so a failure one of them reports reproduces under the others. *)

type check = { check_name : string; ok : bool; detail : string }

type t = {
  serializability : Checker.Serializability.report;
  atomicity : Checker.Atomicity.report;
  version_reads : Checker.Version_reads.report option;  (** 3V runs only *)
  replay : Checker.Replay.report option;  (** 3V runs only *)
  checks : check list;  (** one per check run, in the order above *)
}

(** [run ?engine ?unfinished history] certifies a finished [history]. Pass
    the 3V [engine] that produced it to add the version-read and replay
    checks; replay reads the stores as they are, so publish first (two
    advancements) to check them past garbage collection. Pass
    [unfinished], the count of submissions whose result never arrived, to
    add the settled check. *)
val run :
  ?engine:Threev.Engine.t ->
  ?unfinished:int ->
  (Txn.Spec.t * Txn.Result.t) list ->
  t

(** [clean r] — every check passed. *)
val clean : t -> bool

(** [settled_lookup ~nodes store key] is the freshest value of [key] on
    any of nodes [0 .. nodes-1], scanning from the highest id down —
    the final state replay compares against. [store ~node] is an engine's
    per-node store. *)
val settled_lookup :
  nodes:int ->
  (node:int -> Txn.Value.t Store.Mvstore.t) ->
  Store.Key.t ->
  Txn.Value.t option
