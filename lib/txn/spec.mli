(** Transaction specifications: trees of subtransactions.

    Follows the paper's tree model of transactions [Mohan et al., R*]: a
    transaction is submitted to one node, whose {e root subtransaction} runs
    local operations and then sends child subtransactions to other nodes;
    children may recursively spawn further children, possibly revisiting
    nodes. The empty-root pattern of Figure 1 (a front-end that only fans
    out) is a root with no ops and several children. *)

type subtxn = {
  node : int;  (** node this subtransaction executes on *)
  ops : Op.t list;  (** local operations, executed in order *)
  children : subtxn list;  (** spawned after local execution *)
  think : float;
      (** delay before the operations execute, outside the node's local
          critical section — models application-level lateness such as a
          charge amount not being finalized yet (0 = execute immediately;
          engines add their own per-subtransaction CPU cost on top) *)
}

(** Transaction class, deciding which protocol path an engine uses. *)
type kind =
  | Read_only  (** queries — in 3V they run against the read version *)
  | Commuting  (** well-behaved updates (paper Def. 3.1) *)
  | Non_commuting  (** NC3V updates: 2PL + 2PC (§5) *)

type t = {
  id : int;  (** unique transaction id, also used as the writer tag *)
  label : string;  (** for traces and error messages *)
  root : subtxn;
  kind : kind;
}

(** [subtxn ?think ?children node ops] builds a subtransaction node. *)
val subtxn : ?think:float -> ?children:subtxn list -> int -> Op.t list -> subtxn

(** [make ~id ?label root] classifies the tree ({!classify}) and builds the
    spec. *)
val make : id:int -> ?label:string -> subtxn -> t

(** [classify root] is [Read_only] if no operation writes, [Non_commuting] if
    any write is outside the commuting class, and [Commuting] otherwise. The
    walk allocates nothing. *)
val classify : subtxn -> kind

(** All nodes mentioned anywhere in the tree, deduplicated, sorted. *)
val nodes : t -> int list

(** The names of all distinct keys written anywhere in the tree, sorted. *)
val keys_written : t -> string list

(** Total number of subtransactions in the tree (≥ 1). *)
val size : t -> int

(** Prints the kind as "RO", "C" or "NC". *)
val pp_kind : Format.formatter -> kind -> unit

(** One-line spec summary: id, label, kind, node set. *)
val pp : Format.formatter -> t -> unit
