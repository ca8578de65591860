(* One [int ref] cell per name: bumping a name already present is one
   lookup that allocates nothing. *)
type t = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 16

let incr t name ?(by = 1) () =
  match Hashtbl.find t name with
  | cell -> cell := !cell + by
  | exception Not_found -> Hashtbl.add t name (ref by)

let get t name = match Hashtbl.find_opt t name with Some cell -> !cell | None -> 0

let to_list t =
  Hashtbl.fold (fun k cell acc -> (k, !cell) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge a b =
  let out = create () in
  List.iter (fun (k, v) -> incr out k ~by:v ()) (to_list a);
  List.iter (fun (k, v) -> incr out k ~by:v ()) (to_list b);
  out

let reset = Hashtbl.reset

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
    (fun ppf (k, v) -> Format.fprintf ppf "%s=%d" k v)
    ppf (to_list t)
