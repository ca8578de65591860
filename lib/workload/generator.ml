module Spec = Txn.Spec

type t = {
  gen_name : string;
  arrival_rate : float;
  make : Random.State.t -> id:int -> Txn.Spec.t;
}

let name t = t.gen_name
let rate t = t.arrival_rate

let pick_distinct rng ~n ~among =
  let n = min n among in
  let rec go acc remaining =
    if remaining = 0 then List.rev acc
    else begin
      let candidate = Random.State.int rng among in
      if List.mem candidate acc then go acc remaining
      else go (candidate :: acc) (remaining - 1)
    end
  in
  go [] n

let fanout_tree ~ops_of = function
  | [] -> invalid_arg "Generator.fanout_tree: empty node list"
  | root_node :: rest ->
      let children = List.map (fun n -> Spec.subtxn n (ops_of n)) rest in
      Spec.subtxn ~children root_node (ops_of root_node)
