(* Reference quorum rule: the global computation over every node that the
   engine ran at one shard before every shard count used the per-block
   [Repl.Quorum.required]. test_repl holds the two equal over random live
   masks. *)

module Placement = Repl.Placement

(* Every group has at least one live member. *)
let met placement ~live =
  let rec groups g =
    g >= Placement.group_count placement
    || List.exists live (Placement.members placement g)
       && groups (g + 1)
  in
  groups 0

(* Groups with zero live members, ascending. *)
let dead_groups placement ~live =
  List.filter
    (fun g -> not (List.exists live (Placement.members placement g)))
    (List.init (Placement.group_count placement) (fun g -> g))

(* [req.(i)] iff node [i] is live or a member of a fully-dead group. *)
let required placement ~live =
  let n = Placement.nodes placement in
  let req = Array.init n live in
  List.iter
    (fun g -> List.iter (fun m -> req.(m) <- true) (Placement.members placement g))
    (dead_groups placement ~live);
  req
