(* Keys hash by FNV-1a over their bytes, inline: cheaper per lookup than
   the runtime's generic hash, a C call, that [Hashtbl] and
   [Hashtbl.Make (String)] use. *)
module Keys = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash key =
    let h = ref 0x811c9dc5 in
    for i = 0 to String.length key - 1 do
      h := (!h lxor Char.code key.[i]) * 0x01000193
    done;
    !h land max_int
end)

type 'v item = {
  mutable versions : (int * 'v) list;  (* descending by version *)
  mutable listed : bool;  (* on the store's [gc_list] *)
}

(* Phase-4 GC only has work on items that [needs_gc]: two or more versions,
   or a lone version below the floor that a write created there. Those sit
   on [gc_list], which [gc] trims exactly as a sweep of the whole table
   would. Every other item holds one version, labelled at or above the
   floor when the item last changed, and [gc] never visits it: each GC
   since would have relabelled that version to its own [new_read_version]
   if below it, and the floor is the largest of them, so the item's true
   version is the max of its label and the floor. [settle] writes that
   label back on the item's first touch, and every accessor settles before
   it reads. *)
type 'v t = {
  items : 'v item Keys.t;
  mutable gc_list : 'v item list;
  mutable max_versions_ever : int;
  mutable copies_created : int;
  mutable dual_writes : int;
  mutable gc_floor : int;
}

type write_info = {
  created_copy : bool;
  versions_updated : int;
  created_item : bool;
}

let create () =
  {
    items = Keys.create 256;
    gc_list = [];
    max_versions_ever = 1;
    copies_created = 0;
    dual_writes = 0;
    gc_floor = 0;
  }

let settle t item =
  if not item.listed then
    match item.versions with
    | [ (v, value) ] when v < t.gc_floor ->
        item.versions <- [ (t.gc_floor, value) ]
    | _ -> ()

let find_item t key =
  match Keys.find_opt t.items key with
  | Some item as found ->
      settle t item;
      found
  | None -> None

let needs_gc t item =
  match item.versions with
  | [] -> false
  | [ (v, _) ] -> v < t.gc_floor
  | _ :: _ :: _ -> true

(* Versions are descending: the first one at or below [version] is the
   max. *)
let rec visible (version : int) = function
  | [] -> None
  | ((v, _) as found) :: older -> if v <= version then Some found else visible version older

let read_visible t ~key ~version =
  match find_item t key with
  | None -> None
  | Some item -> visible version item.versions

(* Int-typed walks over the descending versions: the polymorphic
   [List.assoc_opt] and [List.mem_assoc] would compare keys through the
   runtime's generic compare. *)
let rec version_value (version : int) = function
  | [] -> None
  | (v, value) :: older -> if v = version then Some value else version_value version older

let rec has_version (version : int) = function
  | [] -> false
  | (v, _) :: older -> v = version || has_version version older

let read_exact t ~key ~version =
  match find_item t key with
  | None -> None
  | Some item -> version_value version item.versions

let exists t ~key ~version =
  match find_item t key with
  | None -> false
  | Some item -> has_version version item.versions

let exists_above t ~key ~version =
  match find_item t key with
  | None -> false
  | Some item ->
      (* Descending order: the head is the largest version. *)
      (match item.versions with (v, _) :: _ -> v > version | [] -> false)

let note_version_count t item =
  let n = List.length item.versions in
  if n > t.max_versions_ever then t.max_versions_ever <- n

(* Insert (version, value) into a descending list, replacing any existing
   entry for the same version. *)
let rec insert_desc version value = function
  | [] -> [ (version, value) ]
  | (v, _) :: rest when v = version -> (version, value) :: rest
  | ((v, _) as hd) :: rest when v > version ->
      hd :: insert_desc version value rest
  | older -> (version, value) :: older

(* Ensure x(version) exists, per §4.1 step 4: copy from the max existing
   version ≤ version, or materialize [init] for a brand-new item. *)
let ensure_version t item version init =
  if has_version version item.versions then (false, false)
  else begin
    let created_item = match item.versions with [] -> true | _ :: _ -> false in
    let seed =
      match visible version item.versions with
      | Some (_, value) -> value
      | None -> init
    in
    item.versions <- insert_desc version seed item.versions;
    if not created_item then t.copies_created <- t.copies_created + 1;
    note_version_count t item;
    if (not item.listed) && needs_gc t item then begin
      item.listed <- true;
      t.gc_list <- item :: t.gc_list
    end;
    (true, created_item)
  end

let get_or_add_item t key =
  match find_item t key with
  | Some item -> item
  | None ->
      let item = { versions = []; listed = false } in
      Keys.replace t.items key item;
      item

(* The descending [versions] with [f] applied, head first, to each one at
   or above [version]; the versions below are shared, not copied. *)
let[@tail_mod_cons] rec update_from (version : int) f = function
  | (v, value) :: older when v >= version ->
      let value = f value in
      (v, value) :: update_from version f older
  | older -> older

let rec count_from (version : int) n = function
  | (v, _) :: older when v >= version -> count_from version (n + 1) older
  | _ -> n

let write_upward t ~key ~version ~init ~f =
  let item = get_or_add_item t key in
  let created, created_item = ensure_version t item version init in
  item.versions <- update_from version f item.versions;
  let updated = count_from version 0 item.versions in
  if updated >= 2 then t.dual_writes <- t.dual_writes + 1;
  {
    created_copy = created && not created_item;
    versions_updated = updated;
    created_item;
  }

let write_exact t ~key ~version ~init ~f =
  let item = get_or_add_item t key in
  let created, created_item = ensure_version t item version init in
  item.versions <-
    List.map
      (fun (v, value) -> if v = version then (v, f value) else (v, value))
      item.versions;
  { created_copy = created && not created_item; versions_updated = 1; created_item }

(* Keep the versions above [vr]; the version at [vr], or failing that the
   latest one below it relabelled [vr], becomes the oldest; drop the rest. *)
let rec trim vr = function
  | [] -> []
  | ((v, value) as version) :: older ->
      if v > vr then version :: trim vr older
      else if v = vr then [ version ]
      else [ (vr, value) ]

let gc t ~new_read_version =
  let vr = new_read_version in
  if vr > t.gc_floor then t.gc_floor <- vr;
  t.gc_list <-
    List.filter
      (fun item ->
        item.versions <- trim vr item.versions;
        item.listed <- needs_gc t item;
        item.listed)
      t.gc_list

let versions_of t ~key =
  match find_item t key with None -> [] | Some item -> List.map fst item.versions

let keys t =
  Keys.fold (fun k item acc -> match item.versions with [] -> acc | _ :: _ -> k :: acc)
    t.items []
  |> List.sort String.compare

let fold t ~init ~f =
  List.fold_left
    (fun acc key ->
      match find_item t key with
      | None -> acc
      | Some item ->
          List.fold_left (fun acc (v, value) -> f acc key v value) acc
            item.versions)
    init (keys t)

let max_versions_ever t = t.max_versions_ever
let gc_floor t = t.gc_floor
let copies_created t = t.copies_created
let dual_writes t = t.dual_writes
