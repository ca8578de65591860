(** Linear-time index of a finished history, shared by the offline checkers.

    Every checker asks the same question of each read observation: which
    effect-ful writers of the observed key do the value's writer tags carry,
    which does it lack, and which tags belong to no writer of the key at
    all. The index answers it with one linear merge ({!merge}) instead of a
    set built per observation:

    - transactions get {e dense indices} [0 .. n-1] in ascending id order,
      so per-transaction scratch state is a plain array;
    - each key's effect-ful writers sit sorted by id in one slice of
      parallel arrays ([w_*] below), so a value's {!Txn.Value.Writers}
      tags, a list in descending id order, and the key's slice are walked
      together from the top, in place, in O(|tags| + |writers(key)|);
    - a key finds its slice through an array indexed by its interned id
      ({!Store.Key.t}), with no hashing.

    Transaction ids are assumed unique, as {!Txn.Spec.t} requires. *)

type t = private {
  ids : int array;  (** dense index → transaction id, ascending *)
  txns : (Txn.Spec.t * Txn.Result.t) array;
      (** dense index → the history entry with that id *)
  slot_of : int array;
      (** written key's id → its slot, [-1] for an id no effect-ful
          update wrote; ids at or past its length have no slot either.
          Slots count up in order of first write, so no output depends on
          ids *)
  starts : int array;
      (** slot [s]'s writers are the positions [starts.(s)] to
          [starts.(s+1) - 1] of the [w_*] arrays *)
  w_id : int array;  (** writer position → transaction id *)
  w_dense : int array;  (** writer position → dense index *)
  w_overwrote : bool array;
      (** writer position → the update wrote this key with [Overwrite]
          somewhere in its tree *)
}

(** An update (not read-only) that committed, or aborted through
    compensation: compensation leaves its writer tags on every key it
    touched, with a net-zero amount, so readers see it like a committed
    update. *)
val effectful : Txn.Spec.t * Txn.Result.t -> bool

(** An update that aborted without effect: no read should carry its tags. *)
val effectless : Txn.Spec.t * Txn.Result.t -> bool

(** [build history] indexes [history]. When its ids ascend, as every
    [Harness.Runner] history's do, its own order is the dense order;
    otherwise its entries are sorted by id first. Three allocation-free
    walks of the updates' trees then find the largest written key id,
    count each key's writers, and fill the writer slices in place. *)
val build : (Txn.Spec.t * Txn.Result.t) list -> t

(** [find t id] is [id]'s dense index, or [-1] when no entry has that id
    (binary search). *)
val find : t -> int -> int

(** [writers t key] is the slice [(first, stop)] of [key]'s effect-ful
    writers in the [w_*] arrays, [stop] exclusive; [(0, 0)] for a key no
    effect-ful update wrote. *)
val writers : t -> Store.Key.t -> int * int

(** [merge t slice tags ~seen ~unseen ~stray] walks [tags] and the writer
    slice together in descending id order, calling [seen p] for each writer
    position [p] whose id is in [tags] and [unseen p] for each whose id is
    not, in descending position order; then, after the walk, [stray tag]
    for each tag no writer in the slice has, in ascending tag order. Every
    position in the slice is reported exactly once, and so is every
    stray. *)
val merge :
  t ->
  int * int ->
  Txn.Value.Writers.t ->
  seen:(int -> unit) ->
  unseen:(int -> unit) ->
  stray:(int -> unit) ->
  unit

(** [observed reads] is one [(key, tags)] per distinct key of a read's
    [reads], in order of first occurrence, with the writer tags of every
    observation of that key unioned. *)
val observed :
  (Store.Key.t * Txn.Value.t) list -> (Store.Key.t * Txn.Value.Writers.t) list
