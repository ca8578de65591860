type t = { nodes : int; k : int }

let create ~nodes ~replicas =
  if nodes <= 0 then invalid_arg "Placement.create: nodes must be positive";
  if replicas <= 0 then
    invalid_arg "Placement.create: replicas must be positive";
  if replicas > nodes then
    invalid_arg "Placement.create: replicas must not exceed nodes";
  { nodes; k = replicas }

let nodes t = t.nodes
let group_count t = (t.nodes + t.k - 1) / t.k
let group_of_node t node =
  if node < 0 || node >= t.nodes then
    invalid_arg (Printf.sprintf "Placement.group_of_node: node %d out of range" node);
  node / t.k

let members t group =
  if group < 0 || group >= group_count t then
    invalid_arg (Printf.sprintf "Placement.members: group %d out of range" group);
  let lo = group * t.k and hi = min ((group + 1) * t.k) t.nodes in
  List.init (hi - lo) (fun i -> lo + i)

let peers t node =
  List.filter (fun m -> m <> node) (members t (group_of_node t node))

let failover_order t node =
  (* Rotate the member list so it starts at [node]: every replica agrees on
     the same cyclic order, so two routers with the same liveness view pick
     the same serving replica. *)
  let ms = members t (group_of_node t node) in
  let after, before = List.partition (fun m -> m >= node) ms in
  after @ before
