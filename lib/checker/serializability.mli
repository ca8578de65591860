(** One-copy serializability certifier — the paper's Theorem 1 made
    executable.

    Builds the multiversion serialization graph (MVSG) of a completed
    history and certifies it acyclic. Nodes are the effect-ful update
    transactions plus the committed transactions that read. Edges:

    - {e reads-from} (w → r): reader [r] observed writer [w]'s tag on some
      key. In any one-copy serial order [w] must precede [r].
    - {e anti-dependency} (r → w): reader [r] observed a key written by the
      effect-ful update [w] {e without} [w]'s tag. Writer tags are monotone
      (every operation preserves the tags already on a value), so had [w]
      preceded [r] on one copy, [r] would have seen the tag — hence [r]
      precedes [w]. Checked per observation, so a non-repeatable read (same
      key seen with and without [w] inside one transaction) closes a
      two-edge cycle.
    - {e version order} (w1 → w2): both wrote the same key, [w1] at a
      strictly lower 3V version, and at least one of the two wrote the key
      non-commutingly ([Overwrite]). Commuting writers are never ordered
      against each other — increments at versions 1 and 2 commute, and
      ordering them would manufacture false cycles around legitimate
      commuting schedules. Baselines stamp every transaction with the same
      version, so for them the graph degenerates to reads-from +
      anti-dependency edges, which are engine-agnostic and sound.

    A cycle is reported as a minimal witness: the shortest edge cycle inside
    the smallest strongly-connected component, found by an iterative Tarjan
    pass followed by breadth-first search. Each witness edge names its kind,
    preferring reads-from, then anti-dependency, then version order, and a
    key that generated an edge of that kind: the first observed key for
    reads-from and anti-dependency, the smallest key ([String.compare]) for
    version order.

    Cost: edges are drawn by one linear merge per observation of its sorted
    writer tags against the key's writers ({!History_index.merge}), packed
    one int per edge, radix-sorted and deduplicated into compressed sparse
    rows — O(Σ over observations of |tags| + |writers(key)|) plus
    O(E log E) for E edges, and O(overwriters × writers) per key for
    version-order edges. Witness keys are recovered by a second pass only
    when a cycle exists. Observed writer tags that no
    effect-ful transaction in the history accounts for (dirty reads of true
    aborts) get no node or edge; they are surfaced in [unknown_count] /
    [unknown_tags] and certifiers downstream must treat them as failures in
    their own right. *)

type edge_kind = Reads_from | Anti_dependency | Version_order

type edge = {
  src : int;  (** transaction id the edge leaves *)
  dst : int;  (** transaction id the edge enters *)
  key : string;  (** a key witnessing the conflict *)
  kind : edge_kind;
}

type report = {
  txns : int;  (** graph nodes: effect-ful updates + committed readers *)
  readers : int;
  writers : int;
  edges : int;  (** distinct (src, dst, kind) edges *)
  rf_edges : int;
  anti_edges : int;
  ww_edges : int;
  unknown_count : int;
      (** (reader, key, tag) observations no effect-ful update accounts for *)
  unknown_tags : (int * string * int) list;  (** capped at 20 *)
  cycle : edge list option;
      (** a minimal cycle witness — [Some] iff the MVSG has a cycle; edge
          [i]'s [dst] is edge [i+1]'s [src], wrapping around *)
}

(** [certify ?shard_of_node history] builds the MVSG of a finished run
    and searches it for a cycle. For sharded histories pass
    [shard_of_node]: version-order edges are then drawn only between
    writers of the same shard (a writer's shard is its root node's) —
    shard frontiers advance independently, so version numbers from
    different shards are incomparable and ordering them would fabricate
    edges. Omitted, all writers share one frontier (the historical
    single-coordinator reading). *)
val certify :
  ?shard_of_node:(int -> int) -> (Txn.Spec.t * Txn.Result.t) list -> report

(** [serializable r] — no cycle. Unknown tags do not affect this; check
    [unknown_count] separately when the history is supposed to be clean. *)
val serializable : report -> bool

(** One-line graph summary: node/edge counts and the certification
    verdict, followed by the cycle witness, one edge a line, when there is
    one. *)
val pp : Format.formatter -> report -> unit
