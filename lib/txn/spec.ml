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

(* The tree's kind so far, folded over its ops with no tuple: [Read_only]
   while nothing writes, [Commuting] while every write commutes, then
   [Non_commuting] for good. *)
let op_kind kind (op : Op.t) =
  match (kind, op) with
  | Non_commuting, _ | _, Op.Overwrite _ -> Non_commuting
  | _, (Op.Incr _ | Op.Append _) -> Commuting
  | _, Op.Read _ -> kind

let rec ops_kind kind = function
  | [] -> kind
  | op :: rest -> ops_kind (op_kind kind op) rest

let rec tree_kind kind st = children_kind (ops_kind kind st.ops) st.children

and children_kind kind = function
  | [] -> kind
  | st :: rest -> children_kind (tree_kind kind st) rest

let classify root = tree_kind Read_only root

let make ~id ?label root =
  let kind = classify root in
  let label =
    match label with Some l -> l | None -> "txn-" ^ string_of_int id
  in
  { id; label; root; kind }

let nodes t =
  fold_subtxns (fun acc st -> st.node :: acc) [] t.root
  |> List.sort_uniq Int.compare

let keys_written t =
  fold_subtxns
    (fun acc st ->
      List.fold_left
        (fun acc op -> if Op.is_write op then Store.Key.name (Op.key op) :: acc else acc)
        acc st.ops)
    [] t.root
  |> List.sort_uniq String.compare

let size t = fold_subtxns (fun acc _ -> acc + 1) 0 t.root

let pp_kind ppf = function
  | Read_only -> Format.pp_print_string ppf "read-only"
  | Commuting -> Format.pp_print_string ppf "commuting"
  | Non_commuting -> Format.pp_print_string ppf "non-commuting"

let pp ppf t =
  Format.fprintf ppf "%s#%d[%a, %d subtxns]" t.label t.id pp_kind t.kind
    (size t)
