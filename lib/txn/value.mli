(** Database values for the data-recording workloads.

    A value is a recording-system "summary plus detail" cell (paper §6): a
    numeric [amount] (e.g. balance due, items sold), a list of appended
    detail [entries], and the set of transaction ids that have written it.
    The [writers] set exists purely for the offline correctness checker —
    it lets a read transaction report exactly which update transactions it
    observed on each key, from which atomic visibility is decided. *)

(** Writer tags: a set of transaction ids, held as a canonical list in
    descending order with no duplicates.

    Every write adds its transaction's id, and ids arrive almost in order,
    so the common add is one cons cell (3 words) in front of the previous
    value, which the new value then shares whole: a value shares its tail
    with every older snapshot of the key, and the observations a history
    keeps share cells instead of each holding a copy. A straggler's id is
    inserted below the ids above it by copying just those cells. On
    seed-1 drives of the benchmark's workloads, 107k adds on [commute-64]
    copied 969 cells in all (a straggler sat at most 3 below the head),
    163k on [faults-k3] copied 9,497 (at most 35 below, from mirrors
    retransmitted after a replica crash), and no add repeated an id; a
    [commute-64] observation carries 21 tags on average (at most 159).
    Lists still grow with the number of writes to a key, so every function
    here runs in constant stack. *)
module Writers : sig
  type t

  val empty : t
  val is_empty : t -> bool

  (** [add x s] is [x :: s] when [x] exceeds every id in [s], and [s]
      itself (physically) when [x] is already in [s]; otherwise it copies
      the cells of [s] above [x]. *)
  val add : int -> t -> t

  (** Walks the ids above [x]: O(1) for the newest writers. *)
  val mem : int -> t -> bool

  (** Linear merge; shares the tail from the first point where both
      arguments are the same list. *)
  val union : t -> t -> t

  (** Ascending, as [Set.S.elements]. *)
  val elements : t -> int list

  (** Ascending, as [Set.S.iter]. *)
  val iter : (int -> unit) -> t -> unit

  (** Ascending, as [Set.S.fold]. *)
  val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

  (** List equality: the representation is canonical. *)
  val equal : t -> t -> bool

  (** The ids in descending order: the representation itself, no copy. *)
  val descending : t -> int list
end

type t = { amount : float; entries : string list; writers : Writers.t }

(** The zero value: amount 0, no entries, no writers. *)
val empty : t

(** [incr ~txn ~delta v] adds [delta] to the amount and records the writer.
    Increments commute: applying two in either order yields the same value. *)
val incr : txn:int -> delta:float -> t -> t

(** [append ~txn ~entry v] prepends a detail record and records the writer.
    Appends commute up to entry order; equality treats entries as a multiset. *)
val append : txn:int -> entry:string -> t -> t

(** [overwrite ~txn ~amount v] replaces the amount (non-commuting). *)
val overwrite : txn:int -> amount:float -> t -> t

(** Structural equality with entries compared as multisets, so states reached
    by commuting updates in different orders compare equal. *)
val equal : t -> t -> bool
