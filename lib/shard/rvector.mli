(** The cross-shard read-vector service.

    With per-shard coordinators each shard advances its own (vu, vr)
    frontier, so a read transaction spanning shards needs one {e vector}
    of per-shard read versions assigned atomically at submission. Each
    shard coordinator {!publish}es its new read version the moment
    phase 3 completes (every shard member acknowledged the switch);
    {!assign} snapshots the whole published vector in one step. Because
    every component is monotone and the snapshot is atomic, any two
    assigned vectors are componentwise comparable — the no-torn-read
    guarantee that keeps cross-shard read histories one-copy
    serializable.

    The service also tracks, per (shard, version), how many assigned
    read entries have not yet {!arrived} at their target shard. An entry
    in that window has opened no counter pair, so the shard's R = C
    quiescence poll cannot see it; the coordinator consults {!pending}
    and defers retiring (and garbage-collecting) the old read version
    until the count drains. *)

type t

(** [create ~shards ~init_vr] starts every component at [init_vr].
    @raise Invalid_argument if [shards < 1]. *)
val create : shards:int -> init_vr:int -> t

(** [publish t ~shard ~vr] raises the shard's published read version
    (monotone: lower values are ignored).
    @raise Invalid_argument if [shard] is out of range. *)
val publish : t -> shard:int -> vr:int -> unit

(** Snapshot of the current published vector (fresh array). *)
val vector : t -> int array

(** [assign t ~entries] snapshots the published vector and registers
    [entries.(s)] in-flight read entries against shard [s]'s component.
    Returns the assigned vector (caller owns the array).
    @raise Invalid_argument if [entries] has the wrong length or a
    negative count. *)
val assign : t -> entries:int array -> int array

(** [arrived t ~shard ~version] retires one in-flight entry registered
    by {!assign}.
    @raise Invalid_argument on a shard/version with no pending entries
    (an accounting bug, not a runtime condition). *)
val arrived : t -> shard:int -> version:int -> unit

(** Outstanding unarrived entries for (shard, version); 0 when clear. *)
val pending : t -> shard:int -> version:int -> int

(** Total vectors handed out (accounting). *)
val assigned : t -> int
