(** A table of entries keyed by increasing ids, laid out as a ring over
    the live window.

    Ids are handed out in increasing order, and every entry is removed
    eventually, in any order. The entries then all sit in the window
    from just above the oldest removed-without-gap id to the newest id,
    so one power-of-two ring indexed by [id land (capacity - 1)] holds
    them with no hashing. The ring doubles when a new id would not fit
    the window, like the reliable channel's stream ring, and never
    shrinks: past its initial 16 slots, its capacity stays below twice
    the widest window it has held, whatever the run's length. The engine
    keeps each node's in-flight subtransactions (its pendings) in one. *)

type 'a t

(** [create ~vacant] is an empty ring. [vacant] fills free slots and is
    what {!find} returns for an absent id: callers compare with it
    physically, so it must be a value no entry is. *)
val create : vacant:'a -> 'a t

(** [add t id x] enters [x] under [id].
    @raise Invalid_argument unless [id] exceeds every id added before. *)
val add : 'a t -> int -> 'a -> unit

(** [find t id] is the entry under [id], or [vacant] when there is none.
    It allocates nothing. *)
val find : 'a t -> int -> 'a

(** [remove t id] drops the entry under [id], if any. *)
val remove : 'a t -> int -> unit

(** Slots in the ring: a power of two, at least 16. *)
val capacity : 'a t -> int

(** The live window's width: the newest id less the largest id below
    which every entry has been removed. *)
val window : 'a t -> int
