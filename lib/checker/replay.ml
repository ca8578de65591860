module Spec = Txn.Spec
module Op = Txn.Op
module Result = Txn.Result
module Value = Txn.Value

type mismatch = { key : string; expected : float; actual : float }

type report = {
  keys_checked : int;
  keys_skipped : int;
  mismatches : mismatch list;
  mismatch_count : int;
}

let rec fold_ops f acc (st : Spec.subtxn) =
  let acc = List.fold_left f acc st.Spec.ops in
  List.fold_left (fold_ops f) acc st.Spec.children

(* Keys whose writes include a non-commuting Overwrite anywhere in the
   history (committed or not) are excluded from prediction. *)
let overwritten_keys history =
  let keys = Hashtbl.create 16 in
  List.iter
    (fun ((spec : Spec.t), _res) ->
      ignore
        (fold_ops
           (fun () op ->
             match op with
             | Op.Overwrite (k, _) -> Hashtbl.replace keys k ()
             | Op.Read _ | Op.Incr _ | Op.Append _ -> ())
           () spec.Spec.root))
    history;
  keys

let expected history =
  let skip = overwritten_keys history in
  let sums = Hashtbl.create 256 in
  List.iter
    (fun ((spec : Spec.t), (res : Result.t)) ->
      if spec.Spec.kind = Spec.Commuting && Result.committed res then
        ignore
          (fold_ops
             (fun () op ->
               match op with
               | Op.Incr (k, d) when not (Hashtbl.mem skip k) ->
                   let cur =
                     match Hashtbl.find_opt sums k with
                     | Some v -> v
                     | None -> 0.
                   in
                   Hashtbl.replace sums k (cur +. d)
               | Op.Append (k, _) when not (Hashtbl.mem skip k) ->
                   (* Appends don't change the amount but must make the key
                      participate in the check. *)
                   if not (Hashtbl.mem sums k) then Hashtbl.replace sums k 0.
               | Op.Read _ | Op.Incr _ | Op.Append _ | Op.Overwrite _ -> ())
             () spec.Spec.root))
    history;
  sums

let check history ~lookup =
  let skip = overwritten_keys history in
  let sums = expected history in
  let mismatches = ref [] in
  let mismatch_count = ref 0 in
  let keys_checked = ref 0 in
  (* Check keys in sorted order: the mismatch list is capped at 20 and
     escapes into the report, so hash-order iteration would make which
     mismatches are reported layout-dependent. *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums []
  |> List.sort (fun (a, _) (b, _) -> Store.Key.compare a b)
  |> List.iter (fun (key, want) ->
         incr keys_checked;
         let actual =
           match lookup key with
           | Some (v : Value.t) -> v.Value.amount
           | None -> 0.
         in
         if Float.abs (actual -. want) > 1e-6 then begin
           incr mismatch_count;
           if List.length !mismatches < 20 then
             mismatches :=
               { key = Store.Key.name key; expected = want; actual } :: !mismatches
         end);
  {
    keys_checked = !keys_checked;
    keys_skipped = Hashtbl.length skip;
    mismatches = List.rev !mismatches;
    mismatch_count = !mismatch_count;
  }

let clean r = r.mismatch_count = 0

let pp ppf r =
  Format.fprintf ppf "keys=%d skipped=%d mismatches=%d%s" r.keys_checked
    r.keys_skipped r.mismatch_count
    (if clean r then " (clean)" else " (VIOLATIONS)")
