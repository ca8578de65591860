type subtxn = {
  node : int;
  ops : Op.t list;
  children : subtxn list;
  think : float;
}

type kind = Read_only | Commuting | Non_commuting

type t = { id : int; label : string; root : subtxn; kind : kind }

let subtxn ?(think = 0.) ?(children = []) node ops =
  { node; ops; children; think }

let rec fold_subtxns f acc st =
  let acc = f acc st in
  List.fold_left (fold_subtxns f) acc st.children

let classify root =
  let has_write, all_commute =
    fold_subtxns
      (fun (w, c) st ->
        List.fold_left
          (fun (w, c) op ->
            if Op.is_write op then (true, c && Op.commuting_write op)
            else (w, c))
          (w, c) st.ops)
      (false, true) root
  in
  if not has_write then Read_only
  else if all_commute then Commuting
  else Non_commuting

let make ~id ?label root =
  let kind = classify root in
  let label =
    match label with Some l -> l | None -> Printf.sprintf "txn-%d" id
  in
  { id; label; root; kind }

let nodes t =
  fold_subtxns (fun acc st -> st.node :: acc) [] t.root
  |> List.sort_uniq Int.compare

let collect_keys pred t =
  fold_subtxns
    (fun acc st ->
      List.fold_left
        (fun acc op -> if pred op then Op.key op :: acc else acc)
        acc st.ops)
    [] t.root
  |> List.sort_uniq String.compare

let keys_read = collect_keys (fun op -> not (Op.is_write op))
let keys_written = collect_keys Op.is_write

let size t = fold_subtxns (fun acc _ -> acc + 1) 0 t.root

let pp_kind ppf = function
  | Read_only -> Format.pp_print_string ppf "read-only"
  | Commuting -> Format.pp_print_string ppf "commuting"
  | Non_commuting -> Format.pp_print_string ppf "non-commuting"

let pp ppf t =
  Format.fprintf ppf "%s#%d[%a, %d subtxns]" t.label t.id pp_kind t.kind
    (size t)
