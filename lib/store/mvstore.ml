type 'v item = {
  key : Key.t;
  id : int;  (* [key]'s, read by probes without the key; -1 in a filler *)
  mutable versions : (int * 'v) list;  (* descending by version *)
  mutable listed : bool;  (* on the store's [gc_list] *)
}

(* Items sit in an open-addressing table over key ids: a key's probe
   starts at the top bits of its id times an odd constant near 2^63 / phi
   and walks up, wrapping, to the item with its id or to a free slot. The
   multiplier spreads the arithmetic progressions that interning gives a
   node's keys (one id every [nodes], for the synthetic workload) over
   the table. The table is at most half full, doubles when it would pass
   that, and removes nothing. It is empty until the first item; a free
   slot holds a filler item with id -1.

   Phase-4 GC only has work on items that [needs_gc]: two or more versions,
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
  mutable items : 'v item array;  (* power-of-two length, or empty *)
  mutable shift : int;  (* 63 - log2 (length items) *)
  mutable count : int;
  mutable gc_list : 'v item list;
  mutable max_versions_ever : int;
  mutable copies_created : int;
  mutable dual_writes : int;
  mutable gc_floor : int;
}

let create () =
  {
    items = [||];
    shift = 63;
    count = 0;
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

let initial_capacity = 8

(* The slot holding [id]'s item, or the free slot where its probe ends. *)
let rec probe items mask id i =
  let x = items.(i).id in
  if x = id || x < 0 then i else probe items mask id ((i + 1) land mask)

let[@inline] home t id = (id * 0x4F1BBCDCBFA53E0B) lsr t.shift

(* The slot of [key]'s item, settled, or -1 when the store has none. *)
let find_slot t key =
  if t.count = 0 then -1
  else begin
    let items = t.items and id = key.Key.id in
    let i = probe items (Array.length items - 1) id (home t id) in
    let item = items.(i) in
    if item.id < 0 then -1
    else begin
      settle t item;
      i
    end
  end

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
  let i = find_slot t key in
  if i < 0 then None else visible version t.items.(i).versions

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
  let i = find_slot t key in
  if i < 0 then None else version_value version t.items.(i).versions

let exists t ~key ~version =
  let i = find_slot t key in
  i >= 0 && has_version version t.items.(i).versions

let exists_above t ~key ~version =
  let i = find_slot t key in
  i >= 0
  &&
  (* Descending order: the head is the largest version. *)
  match t.items.(i).versions with (v, _) :: _ -> v > version | [] -> false

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
  if not (has_version version item.versions) then begin
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
    end
  end

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* Double the table (or make the first one), re-probing every item. *)
let grow t key =
  let items = t.items in
  let cap = max initial_capacity (2 * Array.length items) in
  t.items <- Array.make cap { key; id = -1; versions = []; listed = false };
  t.shift <- 63 - log2 cap;
  Array.iter
    (fun item ->
      if item.id >= 0 then t.items.(probe t.items (cap - 1) item.id (home t item.id)) <- item)
    items

let get_or_add_item t key =
  let i = find_slot t key in
  if i >= 0 then t.items.(i)
  else begin
    if 2 * (t.count + 1) > Array.length t.items then grow t key;
    let id = key.Key.id in
    let item = { key; id; versions = []; listed = false } in
    t.items.(probe t.items (Array.length t.items - 1) id (home t id)) <- item;
    t.count <- t.count + 1;
    item
  end

(* The descending [versions] with [f] applied, head first, to each one at
   or above [version]; the versions below are shared, not copied. *)
let[@tail_mod_cons] rec update_from (version : int) f = function
  | (v, value) :: older when v >= version ->
      let value = f value in
      (v, value) :: update_from version f older
  | older -> older

(* [x(version)] exists, so the write updated two or more versions — a dual
   write — exactly when the newest is above [version]. *)
let write_upward t ~key ~version ~init ~f =
  let item = get_or_add_item t key in
  ensure_version t item version init;
  item.versions <- update_from version f item.versions;
  match item.versions with
  | (v, _) :: _ when v > version -> t.dual_writes <- t.dual_writes + 1
  | _ -> ()

let write_exact t ~key ~version ~init ~f =
  let item = get_or_add_item t key in
  ensure_version t item version init;
  item.versions <-
    List.map
      (fun (v, value) -> if v = version then (v, f value) else (v, value))
      item.versions

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
  let i = find_slot t key in
  if i < 0 then [] else List.map fst t.items.(i).versions

(* Items with a version (no filler has one), in name order: never in slot
   order, which depends on ids. *)
let listing t =
  Array.fold_left
    (fun acc item -> match item.versions with [] -> acc | _ :: _ -> item :: acc)
    [] t.items
  |> List.sort (fun a b -> Key.compare a.key b.key)

let keys t = List.map (fun item -> item.key) (listing t)

let fold t ~init ~f =
  List.fold_left
    (fun acc item ->
      settle t item;
      List.fold_left (fun acc (v, value) -> f acc item.key v value) acc item.versions)
    init (listing t)

let max_versions_ever t = t.max_versions_ever
let gc_floor t = t.gc_floor
let copies_created t = t.copies_created
let dual_writes t = t.dual_writes
