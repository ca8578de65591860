(** Workload generators: named streams of transaction specifications.

    A generator owns an arrival rate (for Poisson open-loop driving by the
    harness) and a [make] function producing the [id]-th transaction from
    the run's RNG. Domain-specific workloads ({!Hospital},
    {!Call_recording}, {!Point_of_sale}, {!Synthetic}) construct values of
    this type. *)

type t = {
  gen_name : string;
  arrival_rate : float;  (** transactions per virtual second *)
  make : Random.State.t -> id:int -> Txn.Spec.t;
}

(** [name t] is the generator's display name (e.g. "hospital"). *)
val name : t -> string

(** [rate t] is the open-loop arrival rate in transactions per virtual
    second. *)
val rate : t -> float

(** [pick_distinct rng ~n ~among] draws [min n among] distinct ints from
    [0 .. among-1] — helper for choosing fan-out node sets. *)
val pick_distinct : Random.State.t -> n:int -> among:int -> int list

(** [fanout_tree ~ops_of nodes] builds a root-plus-children subtransaction
    tree over the given node list: the first node hosts the root (with its
    ops), the rest become children. [nodes] must be non-empty. *)
val fanout_tree : ops_of:(int -> Txn.Op.t list) -> int list -> Txn.Spec.subtxn
