(** Deterministic node-to-replica-group placement.

    The [nodes] data nodes are partitioned into groups of [replicas]
    consecutive nodes: group [g] owns nodes [g*k .. min((g+1)*k, n)-1]
    (the last group may be smaller when [k] does not divide [n]). Every
    commuting update addressed to a node is applied at every live member of
    that node's group; reads fail over along {!failover_order}. With
    [replicas = 1] every group is a singleton: each node is its keys' only
    home, as the workload placed them. *)

type t

(** [create ~nodes ~replicas] validates [1 <= replicas <= nodes]. *)
val create : nodes:int -> replicas:int -> t

(** Number of data nodes the placement covers. *)
val nodes : t -> int

(** Number of replica groups, [ceil (nodes / k)]. *)
val group_count : t -> int

(** [group_of_node t i] is the group owning node [i]. *)
val group_of_node : t -> int -> int

(** [members t g] lists group [g]'s nodes in ascending order. *)
val members : t -> int -> int list

(** [peers t i] is [members] of [i]'s group without [i] itself. *)
val peers : t -> int -> int list

(** [failover_order t i] is [i]'s group rotated to start at [i]: the
    deterministic order in which a read addressed to [i] tries replicas. *)
val failover_order : t -> int -> int list
