(** Per-node request/completion counter tables (paper §2.2, §4).

    A node [p] keeps, for every active version [v]:

    - [R(v)pq] — requests: subtransactions (on version [v]) that node [p]
      sent to node [q]; located at the {e sender} [p];
    - [C(v)op] — completions: subtransactions (on version [v]) submitted
      from node [o] that {e terminated} at node [p]; located at the
      {e executor} [p].

    All transactions against version [v] have terminated exactly when
    [R(v)pq = C(v)pq] for all pairs — with [R(v)pq] read at [p] and
    [C(v)pq] read at [q]. Counters are monotone, which is what makes the
    coordinator's asynchronous polling sound.

    All operations are plain (non-suspending) OCaml: the paper's only
    concurrency assumption for counters is that individual reads and writes
    are atomic, which single-threaded simulation gives for free.

    Representation: the engine's GC keeps at most 3 consecutive versions
    live (§4), so rows for versions inside a {!window}-wide sliding window
    starting at the GC floor live in dense flat int arrays indexed by
    [(version mod window) * nodes + peer] — an incr is a tag compare plus
    one array store. Versions outside the window (late completions for
    GC'd versions, or versions opened ahead of the floor) spill to a
    hashtable with boxed rows; {!gc_below} advances the window and adopts
    spill rows it newly covers. Observable behaviour is identical to a
    plain per-version hash table (see test/test_counters_equiv.ml).

    Census: the tables of one shard's members share a {!census}, which
    counts, per version, the tables holding that version. A table
    reports exactly where it creates a version's slot or spill row and
    where {!gc_below} drops one, so the engine's ≤ 3-distinct-versions
    check reads {!distinct} in O(1) instead of rescanning every member's
    versions.

    Polls: a coordinator poll reply carries {!sparse_r} and {!sparse_c},
    the nonzero entries of a version's R row and C column, so a reply is
    O(peers with traffic), not O(shard size). Each slot keeps the list of
    peers it has traffic with, so neither a snapshot nor reusing the slot
    for a new version costs O(shard size) either. *)

(** A version census shared by a set of tables. *)
type census

(** [census ()] is an empty census. *)
val census : unit -> census

(** Number of distinct versions held by at least one table of the census.
    O(1). *)
val distinct : census -> int

type t

(** Width of the dense version window (a power of two): 3 live versions
    plus one slot of slack for the version opened before the GC floor
    advances. *)
val window : int

(** [create ~census ~nodes] is a counter table for a node in an
    [nodes]-node system, with no versions allocated yet, reporting to
    [census]. *)
val create : census:census -> nodes:int -> t

(** [ensure_version t v] allocates zeroed R/C rows for version [v] if absent
    (paper §4.1 step 2 / §4.3 phase 1). *)
val ensure_version : t -> int -> unit

(** [incr_r t ~version ~dst] bumps [R(version) self→dst]. Allocates the
    version if needed. *)
val incr_r : t -> version:int -> dst:int -> unit

(** [incr_c t ~version ~src] bumps [C(version) src→self]. *)
val incr_c : t -> version:int -> src:int -> unit

(** [r t ~version ~dst] reads [R(version) self→dst]; 0 when the version
    was never allocated. *)
val r : t -> version:int -> dst:int -> int

(** [c t ~version ~src] reads [C(version) src→self]; 0 when the version
    was never allocated. *)
val c : t -> version:int -> src:int -> int

(** [sparse_r t ~version] is the R row for this node as a sparse vector
    ({!Repl.Quorum.entry}): one packed entry (peer [q], [R(version)
    self→q]) per nonzero count, [q] ascending. A version never allocated,
    or one with no traffic, gives the empty array (which OCaml shares, so
    such a reply allocates nothing). Always a fresh copy otherwise: the
    live row keeps moving after the snapshot. *)
val sparse_r : t -> version:int -> int array

(** [sparse_c t ~version] is the C column for this node in the same sparse
    form: entries (peer [o], [C(version) o→self]), [o] ascending. *)
val sparse_c : t -> version:int -> int array

(** Versions currently allocated, ascending ([Int.compare]). Allocates and
    sorts: the engine reads it only at node restart; the per-receipt
    version check reads the {!census}. *)
val versions : t -> int list

(** [gc_below t v] drops counter storage for all versions < [v]
    (§4.3 phase 4). *)
val gc_below : t -> int -> unit

(** [census_versions ?excluding c] is the ascending list of versions held
    by at least one table of [c] that is not in [excluding] (default: none,
    so every version the census counts). [excluding] must list tables of
    [c], each once. O(census × excluded tables): the engine passes only
    its crashed replicas' tables. *)
val census_versions : ?excluding:t list -> census -> int list
