(** Per-node multi-version key-value store for the 3V protocol.

    Implements exactly the data-layer rules of the paper (§4.1, §4.3):

    - {e Reads} (step 3): a transaction with version [v] reads the maximum
      existing version of the item that does not exceed [v].
    - {e Writes} (step 4): if [x(v)] does not exist it is created by copying
      the maximum existing version ≤ [v] ("copy on update"); then {e all}
      versions ≥ [v] are updated — this is the dual write that keeps both the
      old and the new update version consistent when a straggler
      subtransaction arrives after a version switch (§2.3).
    - {e Garbage collection} (§4.3 phase 4): given the new read version [vr],
      if [x(vr)] exists all earlier versions are dropped; otherwise the
      latest earlier version is relabelled [vr]. Only items holding two or
      more versions have anything to drop, so the store keeps a list of
      them (an item joins it when a write gives it a second version, or
      creates it below the current floor) and [gc] trims just those. A
      single-version item below [vr] is relabelled on its first touch after
      the GC, by whichever accessor reaches it first, so every read,
      {!versions_of}, {!fold} and the counters see exactly the result of
      relabelling every item at GC time.

    Items are found by their key's id ({!Key.t}): each store keeps an
    open-addressing table of the ids it holds, at most half full, probed
    from a multiplicative hash of the id, so a lookup hashes no string and
    allocates nothing. Only lookups read the table: {!keys} and {!fold}
    list items in name order. An item's versions are an immutable list,
    descending, so a write rebuilds only the versions it updates (those ≥
    [v]) and shares the older ones with the list it replaces.

    The store also instruments itself so the paper's ≤3-simultaneous-versions
    property (§4.4, property 2a) is checkable: {!max_versions_ever}. *)

type 'v t

(** An empty store (no keys, no versions). *)
val create : unit -> 'v t

(** [read_visible t ~key ~version] is [Some (v0, value)] where [v0] is the
    maximum existing version of [key] with [v0 <= version], or [None] if the
    item has no version ≤ [version]. It allocates only the [Some]: the pair
    is the one the store holds. *)
val read_visible : 'v t -> key:Key.t -> version:int -> (int * 'v) option

(** [read_exact t ~key ~version] is the value stored at exactly that version. *)
val read_exact : 'v t -> key:Key.t -> version:int -> 'v option

(** [exists t ~key ~version] tests whether [key] exists at exactly
    [version]. It allocates nothing. *)
val exists : 'v t -> key:Key.t -> version:int -> bool

(** [exists_above t ~key ~version] tests whether [key] exists in any version
    strictly greater than [version] — the NC3V abort condition (§5 step 4). *)
val exists_above : 'v t -> key:Key.t -> version:int -> bool

(** [write_upward t ~key ~version ~init ~f] performs the paper's update step:
    ensure [x(version)] exists (copying from the max version ≤ [version], or
    materializing [init] when the key is entirely new), then replace every
    version ≥ [version] with [f old_value], newest first. The versions below
    [version] are kept as they are, not copied. Atomic w.r.t. the
    simulation (plain OCaml code, no suspension point). A write that
    updates two or more versions counts in {!dual_writes}. *)
val write_upward : 'v t -> key:Key.t -> version:int -> init:'v -> f:('v -> 'v) -> unit

(** [write_exact t ~key ~version ~init ~f] updates only [x(version)]
    (creating it as in {!write_upward} if needed) and never touches higher
    versions — the NC3V write rule (§5 step 4 updates only [x(V(K))]). *)
val write_exact : 'v t -> key:Key.t -> version:int -> init:'v -> f:('v -> 'v) -> unit

(** [gc t ~new_read_version] applies phase-4 garbage collection (see above).
    Its cost is in the number of multi-version items, not the store's size. *)
val gc : 'v t -> new_read_version:int -> unit

(** Highest [new_read_version] ever garbage-collected to (0 before any GC).
    The store is the node's durable state, so this survives a simulated
    crash: a restarted node recovers a safe read version from it — every
    version below the floor is gone, and the floor itself was declared
    globally consistent before the GC notice was sent. *)
val gc_floor : 'v t -> int

(** Versions currently materialized for [key], descending. *)
val versions_of : 'v t -> key:Key.t -> int list

(** All keys with at least one version, sorted by name. *)
val keys : 'v t -> Key.t list

(** [fold t ~init ~f] folds over [(key, version, value)] triples, keys in
    name order and each key's versions descending. *)
val fold : 'v t -> init:'a -> f:('a -> Key.t -> int -> 'v -> 'a) -> 'a

(** Largest number of simultaneous versions any single item ever had. *)
val max_versions_ever : 'v t -> int

(** Number of copy-on-write materializations performed. *)
val copies_created : 'v t -> int

(** Number of writes that updated ≥ 2 versions (the §2.3 dual-write case). *)
val dual_writes : 'v t -> int
