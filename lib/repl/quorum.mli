(** Quorum rules for group-aware counter polling.

    Version advancement tolerates up to [k-1] crashed replicas per group: a
    coordinator wait completes once every {e required} member of its shard
    replied, where a node is required iff it is live or its whole group is
    down (a fully-dead group blocks advancement — excusing it would declare
    versions consistent that no surviving replica can vouch for). That is
    the one requirement rule; every shard count uses it, the single shard
    being the block [[0, nodes)]. Counter-matrix agreement is
    likewise restricted to pairs of considered nodes: an R bump at a live
    sender whose mirrored update is still in flight to a crashed replica is
    excused, because the reliable channel retransmits the mirror until the
    replica restarts and the readable-after-recovery rule keeps that replica
    from serving reads before its counters balance again. *)

(** [required placement ~lo ~n ~live] is the requirement over the block of
    [n] nodes from [lo], a union of whole replica groups (a shard):
    [(req, lost)] where [req.(i)] holds iff node [lo + i]'s reply must be
    awaited — it is live, or no member of its group is — and [lost] iff
    some group of the block has no live member. [live] is probed once per
    node, in ascending order. *)
val required :
  Placement.t -> lo:int -> n:int -> live:(int -> bool) -> bool array * bool

(** {2 Sparse counter vectors}

    A poll reply carries a node's R row and C column for one version as
    sparse vectors: the nonzero entries only, each packing a peer index
    and its count into one int, ascending by peer. A packed entry orders
    by peer first, so a vector sorted by peer is sorted as ints, and two
    entries are equal exactly when both peer and count are. A vector is
    never longer than the dense row. *)

(** [entry ~peer ~count] packs one nonzero entry; [count] must stay below
    [2{^40}]. *)
val entry : peer:int -> count:int -> int

(** One poll round's replies over a shard's [m] members, indexed by
    member offset. [replied.(i)] says member [i]'s reply is in; then
    [rows.(i)] is its sparse R row and [cols.(i)] its sparse C column
    (what [Counters.sparse_r] and [sparse_c] build): an entry [(q, n)] of
    [rows.(p)] is [R(v)pq = n], an entry [(p, n)] of [cols.(q)] is
    [C(v)pq = n]. The decisions below read only members that replied, so a
    round is reused by clearing [replied] alone. *)
type round = {
  rows : int array array;
  cols : int array array;
  replied : bool array;
}

(** [round m] is a round for [m] members with no replies. *)
val round : int -> round

(** [settled rd] holds iff [R(v)pq = C(v)pq] for every pair of members
    that replied. O(m + nonzero entries). *)
val settled : round -> bool

(** [stable prev cur] holds iff the two rounds report the same R and C
    entries over every pair of members that replied to both.
    O(m + nonzero entries). *)
val stable : round -> round -> bool
