(** Subtransaction operations and their commutativity classification.

    The paper requires {e subtransactions} (not individual operations) to
    commute. In these workloads, commuting subtransactions are built from
    [Incr]/[Append] (record a charge, insert a detail row — paper §6), while
    [Overwrite] marks a non-commuting update (NC3V territory, §5).

    An operation carries its key interned ({!Store.Key}): the workload
    interns each name once, and the store and the checkers' history index
    find the item by the key's id. Printed forms use the name. *)

type t =
  | Read of Store.Key.t  (** read the value of a key *)
  | Incr of Store.Key.t * float  (** add to the summary amount — commutes *)
  | Append of Store.Key.t * string  (** insert a detail record — commutes *)
  | Overwrite of Store.Key.t * float  (** blind write — does NOT commute *)

(** The key the operation touches. *)
val key : t -> Store.Key.t

(** [is_write op] is true for every constructor except [Read]. *)
val is_write : t -> bool

(** [commuting_write op] is true for writes in the commuting class
    ([Incr], [Append]); false for [Overwrite]; false for [Read]. *)
val commuting_write : t -> bool

(** [apply op ~txn v] is the value after the write (identity for [Read]). *)
val apply : t -> txn:int -> Value.t -> Value.t
