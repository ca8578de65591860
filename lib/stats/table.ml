type t = {
  title : string;
  columns : string list;
  mutable data : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns; data = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.add_row %S: expected %d cells, got %d" t.title
         (List.length t.columns) (List.length cells));
  t.data <- cells :: t.data

let rows t = List.length t.data

let to_string t =
  let all = t.columns :: List.rev t.data in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    all;
  let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
  let render_row row =
    "| " ^ String.concat " | " (List.mapi pad row) ^ " |"
  in
  let sep =
    "|"
    ^ String.concat "|"
        (List.init ncols (fun i -> String.make (widths.(i) + 2) '-'))
    ^ "|"
  in
  let body = List.map render_row (List.rev t.data) in
  String.concat "\n"
    (Printf.sprintf "### %s" t.title
    :: ""
    :: render_row t.columns
    :: sep
    :: body)
  ^ "\n"

let print t = print_string (to_string t ^ "\n")

let cell_f x =
  if Float.is_integer x && Float.abs x < 1e7 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.4g" x

let cell_i = string_of_int

let cell_pct part total =
  if total = 0 then "n/a"
  else Printf.sprintf "%.1f%%" (100. *. float_of_int part /. float_of_int total)
