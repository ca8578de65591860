(** Per-node lock manager with a commute-aware mode lattice.

    Supports both worlds used in this repository:

    - [Shared]/[Exclusive] — classical 2PL, used by the Global-2PC baseline;
    - [Commute_read]/[Commute_update]/[Non_commute] — the NC3V modes of
      paper §5: commuting locks are compatible with each other but not with
      their non-commuting counterpart, so in the absence of non-well-behaved
      transactions a commute lock is always granted without waiting.

    Locks are found by {!Store.Key.id}; the manager keeps a record only for
    a key with a holder or a waiter, and one per owner holding or awaiting
    a lock, and never iterates either table. Grants are FIFO: a request
    waits behind an earlier incompatible waiter. An owner's release wakes
    the waiters it unblocks key by key in the order the owner acquired
    those keys, so the wake order follows the transactions, not a table's
    layout. Local deadlocks are detected eagerly, by walking waits-for
    edges from a blocked request's blockers through the owners that wait;
    distributed deadlocks (cycles spanning nodes, invisible locally) fall
    back to a timeout, as in production systems. *)

type mode = Shared | Exclusive | Commute_read | Commute_update | Non_commute

(** Compatibility matrix. Same-owner requests are always compatible with the
    owner's own holdings. *)
val compatible : mode -> mode -> bool

type grant =
  | Granted
  | Deadlock  (** a local waits-for cycle was found; caller should abort *)
  | Timeout  (** waited longer than the deadlock timeout; caller should abort *)
  | Cancelled
      (** the wait was torn down by the owner's own [release_all] (post-abort
          cleanup) — not a conflict outcome, so not counted in
          [conflicts_aborted] *)

type t

(** [create sim ?deadlock_timeout ()] — [deadlock_timeout] (virtual seconds,
    default 1.0) bounds waits to break distributed deadlocks. *)
val create : Simul.Sim.t -> ?deadlock_timeout:float -> unit -> t

(** [acquire_then t ?timeout ~owner ~key ~mode k] requests the lock and
    passes the verdict to [k]. A verdict reached at once ([Granted], or
    [Deadlock] when waiting would close a local cycle) runs [k] inside the
    caller's event. Otherwise the request queues, and the grant, timeout
    or cancellation that ends its wait queues [k] at the current instant,
    on an event of its own. [timeout] overrides the manager's deadlock
    timeout for this request ([infinity] waits forever — used by
    commuting transactions, whose waits are always resolved by a
    non-commuting transaction timing out). Re-entrant: an owner's own
    holdings never conflict with its new requests. *)
val acquire_then :
  t -> ?timeout:float -> owner:int -> key:Store.Key.t -> mode:mode -> (grant -> unit) -> unit

(** [release_all t ~owner] ends [owner]'s waiting requests ([Cancelled]),
    then drops its locks in the order it acquired them, waking the waiters
    each newly grantable key admits, then wakes the cancelled requests. It
    touches only [owner]'s own locks and requests. *)
val release_all : t -> owner:int -> unit

(** Locks currently held by [owner], as (key, mode) pairs, in the order
    they were granted. *)
val held : t -> owner:int -> (Store.Key.t * mode) list

(** Number of requests currently waiting across all keys. *)
val waiting : t -> int

(** Number of keys the manager keeps a lock record for: those with a
    holder or a waiting request. *)
val locked_keys : t -> int

(** Total lock waits that ended in [Deadlock] or [Timeout] since creation
    ([Cancelled] waits are not conflicts and are excluded). *)
val conflicts_aborted : t -> int

(** [plan ~read ~write ops] is the lock plan of [ops]: each key they touch
    once, in {!Store.Key.compare} order (the order its locks are taken),
    with mode [write] if some op writes it, else [read]. *)
val plan : read:mode -> write:mode -> Op.t list -> (Store.Key.t * mode) list
