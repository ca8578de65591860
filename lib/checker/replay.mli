(** End-state replay check for commuting histories.

    Because commuting updates yield the same final state under any order,
    the final database state is predictable offline: for every key touched
    only by [Incr]/[Append] writes, the final amount must equal the sum of
    the deltas of all committed transactions that wrote it (compensated
    transactions net to zero by construction). Comparing this prediction
    against an engine's settled store is a whole-run integrity check —
    a lost, duplicated, or half-applied subtransaction shows up here even
    if no read happened to witness it.

    Keys written by any [Overwrite] (order-dependent) are skipped. *)

type mismatch = { key : string; expected : float; actual : float }

type report = {
  keys_checked : int;
  keys_skipped : int;  (** keys with non-commuting writes *)
  mismatches : mismatch list;  (** capped at 20 *)
  mismatch_count : int;
}

(** [expected history] predicts per-key final amounts from committed
    commuting transactions, also returning the set of skipped keys. *)
val expected :
  (Txn.Spec.t * Txn.Result.t) list -> (Store.Key.t, float) Hashtbl.t

(** [check history ~lookup] compares the prediction against the engine's
    settled state; [lookup key] must return the latest value of [key] (or
    [None] if the key was never materialized, treated as amount 0). *)
val check :
  (Txn.Spec.t * Txn.Result.t) list ->
  lookup:(Store.Key.t -> Txn.Value.t option) ->
  report

(** True when no mismatch was found. *)
val clean : report -> bool

(** Summary line plus one line per (capped) mismatch. *)
val pp : Format.formatter -> report -> unit
