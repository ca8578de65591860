(** Per-node lock manager with a commute-aware mode lattice.

    Supports both worlds used in this repository:

    - [Shared]/[Exclusive] — classical 2PL, used by the Global-2PC baseline;
    - [Commute_read]/[Commute_update]/[Non_commute] — the NC3V modes of
      paper §5: commuting locks are compatible with each other but not with
      their non-commuting counterpart, so in the absence of non-well-behaved
      transactions a commute lock is always granted without waiting.

    Grants are FIFO: a request waits behind an earlier incompatible waiter.
    Local deadlocks are detected eagerly on the waits-for graph; distributed
    deadlocks (cycles spanning nodes, invisible locally) fall back to a
    timeout, as in production systems. *)

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

(** [acquire t ?timeout ~owner ~key ~mode] blocks the calling process until
    the lock is granted or refused. [timeout] overrides the manager's
    deadlock timeout for this request ([infinity] waits forever — used by
    commuting transactions, whose waits are always resolved by a
    non-commuting transaction timing out). Re-entrant: an owner's own
    holdings never conflict with its new requests. *)
val acquire :
  t -> ?timeout:float -> owner:int -> key:string -> mode:mode -> unit -> grant

(** [release_all t ~owner] drops every lock held by [owner], cancels its
    waiting requests, and wakes newly grantable waiters. *)
val release_all : t -> owner:int -> unit

(** Locks currently held by [owner], as (key, mode) pairs, sorted by key. *)
val held : t -> owner:int -> (string * mode) list

(** Number of requests currently waiting across all keys. *)
val waiting : t -> int

(** Total lock waits that ended in [Deadlock] or [Timeout] since creation
    ([Cancelled] waits are not conflicts and are excluded). *)
val conflicts_aborted : t -> int
