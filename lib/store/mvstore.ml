(* An item's versions, newest first: up to three in its slots ([l0], [x0]),
   ([l1], [x1]) and ([l2], [x2]), of which [n] are in use, then any older
   ones in [older], descending. [older] is empty unless all three slots are
   in use: only a store whose GC falls behind (the A2 ablation, or the
   manual-versioning baseline, which never collects) holds a fourth
   version. A slot out of use holds slot 0's value, so it keeps nothing
   alive, and its label means nothing. A lookup that reads slot 0 reads
   only the first four fields. *)
type 'v item = {
  id : int;  (* [key]'s, read by probes without the key; -1 in a filler *)
  mutable listed : bool;  (* on the store's [gc_list] *)
  mutable l0 : int;
  mutable x0 : 'v;
  mutable n : int;  (* slots in use: 1 to 3, or 0 in a filler *)
  mutable l1 : int;
  mutable x1 : 'v;
  mutable l2 : int;
  mutable x2 : 'v;
  mutable older : (int * 'v) list;
  key : Key.t;
}

(* Items sit in an open-addressing table over key ids: a key's probe
   starts at the top bits of its id times an odd constant near 2^63 / phi
   and walks up, wrapping, to the item with its id or to a free slot. The
   multiplier spreads the arithmetic progressions that interning gives a
   node's keys (one id every [nodes], for the synthetic workload) over
   the table. The table is at most half full, doubles when it would pass
   that, and removes nothing. It is empty until the first item; a free
   slot holds a filler item with id -1, whose values are the [init] of
   the write that made the table.

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
  mutable gc_list : 'v item array;  (* its first [gc_length] entries; the table holds the rest *)
  mutable gc_length : int;
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
    gc_list = [||];
    gc_length = 0;
    max_versions_ever = 1;
    copies_created = 0;
    dual_writes = 0;
    gc_floor = 0;
  }

let settle t item =
  if (not item.listed) && item.l0 < t.gc_floor then item.l0 <- t.gc_floor

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

let needs_gc t item = item.n > 1 || item.l0 < t.gc_floor

(* Int-typed walks over the descending overflow: the polymorphic
   [List.assoc_opt] and [List.mem_assoc] would compare keys through the
   runtime's generic compare. *)
let rec older_visible (version : int) = function
  | [] -> None
  | ((v, _) as found) :: older -> if v <= version then Some found else older_visible version older

let rec older_value (version : int) = function
  | [] -> None
  | (v, value) :: older -> if v = version then Some value else older_value version older

(* The position of the newest version at or below [version]: 0, 1 or 2
   for a slot, 3 when it is in [older], -1 when there is none. *)
let visible_slot item version =
  if item.l0 <= version then 0
  else if item.n < 2 then -1
  else if item.l1 <= version then 1
  else if item.n < 3 then -1
  else if item.l2 <= version then 2
  else match older_visible version item.older with Some _ -> 3 | None -> -1

(* The slot labelled [version], or -1 when no slot is. *)
let exact_slot item version =
  if item.l0 = version then 0
  else if item.n > 1 && item.l1 = version then 1
  else if item.n > 2 && item.l2 = version then 2
  else -1

let rec older_has (version : int) = function
  | [] -> false
  | (v, _) :: older -> v = version || older_has version older

let has_version item version = exact_slot item version >= 0 || older_has version item.older

let read_visible t ~key ~version =
  let i = find_slot t key in
  if i < 0 then None
  else
    let item = t.items.(i) in
    match visible_slot item version with
    | 0 -> Some item.x0
    | 1 -> Some item.x1
    | 2 -> Some item.x2
    | 3 -> Option.map snd (older_visible version item.older)
    | _ -> None

let visible_version t ~key ~version =
  let i = find_slot t key in
  if i < 0 then -1
  else
    let item = t.items.(i) in
    match visible_slot item version with
    | 0 -> item.l0
    | 1 -> item.l1
    | 2 -> item.l2
    | 3 -> ( match older_visible version item.older with Some (v, _) -> v | None -> -1)
    | _ -> -1

let read_exact t ~key ~version =
  let i = find_slot t key in
  if i < 0 then None
  else
    let item = t.items.(i) in
    match exact_slot item version with
    | 0 -> Some item.x0
    | 1 -> Some item.x1
    | 2 -> Some item.x2
    | _ -> older_value version item.older

let exists t ~key ~version =
  let i = find_slot t key in
  i >= 0 && has_version t.items.(i) version

(* The newest version is in slot 0. *)
let exists_above t ~key ~version =
  let i = find_slot t key in
  i >= 0 && t.items.(i).l0 > version

let list_for_gc t item =
  if (not item.listed) && needs_gc t item then begin
    item.listed <- true;
    if t.gc_length = Array.length t.gc_list then begin
      let grown = Array.make (max initial_capacity (2 * t.gc_length)) item in
      Array.blit t.gc_list 0 grown 0 t.gc_length;
      t.gc_list <- grown
    end;
    t.gc_list.(t.gc_length) <- item;
    t.gc_length <- t.gc_length + 1
  end

(* Insert (version, value) into a descending list that has no entry for
   [version]. *)
let rec insert_desc version value = function
  | ((v, _) as hd) :: rest when v > version -> hd :: insert_desc version value rest
  | older -> (version, value) :: older

(* Slot 2's version moves to the overflow when all three slots are in
   use. *)
let spill item = if item.n = 3 then item.older <- (item.l2, item.x2) :: item.older

(* Make x(version) on an item that lacks it, per §4.1 step 4: a copy of
   the newest version below it, or [init] when there is none. The
   versions above [version] keep their slots, and the slots below the new
   one each move down one, slot 2's into the overflow. *)
let ensure_version t item version init =
  if version > item.l0 then begin
    spill item;
    item.l2 <- item.l1;
    item.x2 <- item.x1;
    item.l1 <- item.l0;
    item.x1 <- item.x0;
    item.l0 <- version
  end
  else if item.n = 1 || version > item.l1 then begin
    let seed = if item.n = 1 then init else item.x1 in
    spill item;
    item.l2 <- item.l1;
    item.x2 <- item.x1;
    item.l1 <- version;
    item.x1 <- seed
  end
  else if item.n = 2 || version > item.l2 then begin
    let seed = if item.n = 2 then init else item.x2 in
    spill item;
    item.l2 <- version;
    item.x2 <- seed
  end
  else begin
    let seed = match older_visible version item.older with Some (_, x) -> x | None -> init in
    item.older <- insert_desc version seed item.older
  end;
  if item.n < 3 then item.n <- item.n + 1;
  t.copies_created <- t.copies_created + 1;
  let count = item.n + List.length item.older in
  if count > t.max_versions_ever then t.max_versions_ever <- count;
  list_for_gc t item

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let make_item key id version init =
  {
    id;
    listed = false;
    l0 = version;
    x0 = init;
    n = (if id < 0 then 0 else 1);
    l1 = version;
    x1 = init;
    l2 = version;
    x2 = init;
    older = [];
    key;
  }

(* Double the table (or make the first one), re-probing every item. *)
let grow t key init =
  let items = t.items in
  let cap = max initial_capacity (2 * Array.length items) in
  t.items <- Array.make cap (make_item key (-1) 0 init);
  t.shift <- 63 - log2 cap;
  Array.iter
    (fun item ->
      if item.id >= 0 then t.items.(probe t.items (cap - 1) item.id (home t item.id)) <- item)
    items

(* [key]'s item, holding x(version): made from [init] for a key the store
   lacks, which is no copy. *)
let item_at t key version init =
  let i = find_slot t key in
  if i >= 0 then begin
    let item = t.items.(i) in
    if not (has_version item version) then ensure_version t item version init;
    item
  end
  else begin
    if 2 * (t.count + 1) > Array.length t.items then grow t key init;
    let id = key.Key.id in
    let item = make_item key id version init in
    t.items.(probe t.items (Array.length t.items - 1) id (home t id)) <- item;
    t.count <- t.count + 1;
    list_for_gc t item;
    item
  end

(* The descending overflow with [f a b] applied, head first, to each
   version at or above [version]; the versions below are shared. *)
let[@tail_mod_cons] rec update_from (version : int) f a b = function
  | (v, value) :: older when v >= version ->
      let value = f a b value in
      (v, value) :: update_from version f a b older
  | older -> older

(* Slot 0 takes [value], and the slots out of use with it. *)
let set_x0 item value =
  item.x0 <- value;
  if item.n < 3 then begin
    item.x2 <- value;
    if item.n < 2 then item.x1 <- value
  end

(* Every version at or above [version] takes [f a b], newest first, in
   its slot. [x(version)] exists, so the write updated two or more
   versions — a dual write — exactly when the newest is above [version]. *)
let write_upward t ~key ~version ~init ~f a b =
  let item = item_at t key version init in
  if item.l0 > version then t.dual_writes <- t.dual_writes + 1;
  set_x0 item (f a b item.x0);
  if item.n > 1 && item.l1 >= version then begin
    item.x1 <- f a b item.x1;
    if item.n > 2 && item.l2 >= version then begin
      item.x2 <- f a b item.x2;
      item.older <- update_from version f a b item.older
    end
  end

let write_exact t ~key ~version ~init ~f a b =
  let item = item_at t key version init in
  match exact_slot item version with
  | 0 -> set_x0 item (f a b item.x0)
  | 1 -> item.x1 <- f a b item.x1
  | 2 -> item.x2 <- f a b item.x2
  | _ ->
      item.older <-
        List.map (fun (v, value) -> if v = version then (v, f a b value) else (v, value)) item.older

(* Keep the first [n] slots and drop the overflow; the slots left out of
   use take slot 0's value. *)
let truncate item n =
  item.n <- n;
  item.older <- [];
  if n < 3 then item.x2 <- item.x0;
  if n < 2 then item.x1 <- item.x0

(* Keep the versions above [vr]; the version at [vr], or failing that the
   latest one below it relabelled [vr], becomes the oldest; drop the rest. *)
let rec trim_older vr = function
  | [] -> []
  | ((v, value) as version) :: older ->
      if v > vr then version :: trim_older vr older
      else if v = vr then [ version ]
      else [ (vr, value) ]

let trim vr item =
  if item.l0 <= vr then begin
    item.l0 <- vr;
    truncate item 1
  end
  else if item.n > 1 && item.l1 <= vr then begin
    item.l1 <- vr;
    truncate item 2
  end
  else if item.n > 2 && item.l2 <= vr then begin
    item.l2 <- vr;
    item.older <- []
  end
  else if item.n > 2 then item.older <- trim_older vr item.older

(* Trims every listed item and keeps on the list, in place, those that
   still need GC. *)
let gc t ~new_read_version =
  let vr = new_read_version in
  if vr > t.gc_floor then t.gc_floor <- vr;
  let kept = ref 0 in
  for i = 0 to t.gc_length - 1 do
    let item = t.gc_list.(i) in
    trim vr item;
    item.listed <- needs_gc t item;
    if item.listed then begin
      t.gc_list.(!kept) <- item;
      incr kept
    end
  done;
  t.gc_length <- !kept

(* [f] over the item's versions, newest first. *)
let fold_versions item ~init ~f =
  let acc = f init item.l0 item.x0 in
  let acc = if item.n > 1 then f acc item.l1 item.x1 else acc in
  let acc = if item.n > 2 then f acc item.l2 item.x2 else acc in
  List.fold_left (fun acc (v, value) -> f acc v value) acc item.older

let versions_of t ~key =
  let i = find_slot t key in
  if i < 0 then []
  else List.rev (fold_versions t.items.(i) ~init:[] ~f:(fun acc v _ -> v :: acc))

(* Items (no filler), in name order: never in slot order, which depends
   on ids. *)
let listing t =
  Array.fold_left (fun acc item -> if item.id < 0 then acc else item :: acc) [] t.items
  |> List.sort (fun a b -> Key.compare a.key b.key)

let keys t = List.map (fun item -> item.key) (listing t)

let fold t ~init ~f =
  List.fold_left
    (fun acc item ->
      settle t item;
      fold_versions item ~init:acc ~f:(fun acc v value -> f acc item.key v value))
    init (listing t)

let max_versions_ever t = t.max_versions_ever
let gc_floor t = t.gc_floor
let copies_created t = t.copies_created
let dual_writes t = t.dual_writes
