(* Reference implementations of the engine's version census and sparse
   poll decisions, kept as test oracles.

   The engine once found a shard's distinct counter versions by folding
   over every member's counter table on every check (O(members) per
   Start_advancement/Do_gc receipt), and decided quiescence by copying
   each poll reply into dense members x members R and C matrices and
   comparing them entrywise. Both are rebuilt here from the public API
   (Engine.counters, Engine.injector) and the sparse rounds, so the O(1)
   census and the O(m + entries) decisions can be pinned against them. *)

module Engine = Threev.Engine
module Counters = Threev.Counters
module Quorum = Repl.Quorum

(* ------------------------------------------------ the version rescan *)

(* Dedup while folding: the union holds a handful of versions. *)
let add_distinct v acc = if List.mem v acc then acc else v :: acc

(* Fold [f] over the counter version sets of nodes [lo, lo + n). *)
let window_over eng ~lo ~n f init =
  let acc = ref init in
  for i = lo to lo + n - 1 do
    acc := List.fold_right f (Counters.versions (Engine.counters eng ~node:i)) !acc
  done;
  !acc

let version_window_shard eng ~lo ~n =
  window_over eng ~lo ~n add_distinct [] |> List.sort Int.compare

(* The same, over the members that are up at [at] per the injector. *)
let live_version_window_shard eng ~lo ~n ~at =
  let acc = ref [] in
  for i = lo to lo + n - 1 do
    if not (Fault.Injector.down (Engine.injector eng) ~node:i ~at) then
      acc := List.fold_right add_distinct (Counters.versions (Engine.counters eng ~node:i)) !acc
  done;
  List.sort Int.compare !acc

(* The window the ≤ 3 check tests for [shard]: live members only when
   [replicas > 1]. *)
let shard_window eng ~nodes ~replicas ~shard ~at =
  let per = nodes / Engine.shard_count eng in
  let lo = shard * per in
  if replicas > 1 then live_version_window_shard eng ~lo ~n:per ~at
  else version_window_shard eng ~lo ~n:per

(* ------------------------------------------- the dense poll decision *)

(* [a.(p).(q) = b.(p).(q)] over pairs with both ends considered. *)
let matrices_agree ~considered (a : int array array) (b : int array array) =
  let n = Array.length a in
  let ok = ref true in
  for p = 0 to n - 1 do
    for q = 0 to n - 1 do
      if considered.(p) && considered.(q) && a.(p).(q) <> b.(p).(q) then
        ok := false
    done
  done;
  !ok

let sparse_of_dense (row : int array) =
  Array.to_list row
  |> List.mapi (fun q x -> (q, x))
  |> List.filter (fun (_, x) -> x <> 0)
  |> List.map (fun (peer, count) -> Quorum.entry ~peer ~count)
  |> Array.of_list

(* The round a poll of matrices [r] (R, row p from member p) and [c] (C,
   column q from member q) would collect when the members in [replied]
   answer. Members that did not reply still get their rows filled in: the
   decisions must ignore whatever a reused buffer holds there. *)
let round_of ~replied ~r ~c =
  let m = Array.length r in
  {
    Quorum.rows = Array.map sparse_of_dense r;
    cols = Array.init m (fun q -> sparse_of_dense (Array.init m (fun p -> c.(p).(q))));
    replied;
  }

(* The dense decisions the engine made before the sparse rounds: [settled]
   over the members that replied, [stable] over those that replied to both
   rounds. *)
let settled ~replied ~r ~c = matrices_agree ~considered:replied r c

let stable ~prev:(pg, pr, pc) (g, r, c) =
  let considered = Array.map2 ( && ) pg g in
  matrices_agree ~considered pr r && matrices_agree ~considered pc c
