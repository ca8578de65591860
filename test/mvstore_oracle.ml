(* Reference store: the multi-version store as it was before the GC list,
   kept as the specification the lazy store is compared against
   (test_store.ml's equivalence property). Its [gc] sweeps every item of
   the table and relabels each single-version item below the new read
   version on the spot. Writes return nothing: the equivalence property
   compares the two stores' copy and dual-write counts, version lists and
   key listing after every operation. *)

type 'v item = { mutable versions : (int * 'v) list (* descending by version *) }

type 'v t = {
  items : (string, 'v item) Hashtbl.t;
  mutable max_versions_ever : int;
  mutable copies_created : int;
  mutable dual_writes : int;
  mutable gc_floor : int;
}

let create () =
  {
    items = Hashtbl.create 256;
    max_versions_ever = 1;
    copies_created = 0;
    dual_writes = 0;
    gc_floor = 0;
  }

let find_item t key = Hashtbl.find_opt t.items key

let read_visible t ~key ~version =
  match find_item t key with
  | None -> None
  | Some item ->
      (* Versions are descending: first one ≤ [version] is the max. *)
      List.find_opt (fun (v, _) -> v <= version) item.versions

let read_exact t ~key ~version =
  match find_item t key with
  | None -> None
  | Some item -> List.assoc_opt version item.versions

let exists t ~key ~version = read_exact t ~key ~version <> None

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
  if not (List.mem_assoc version item.versions) then begin
    let created_item = item.versions = [] in
    let seed =
      match List.find_opt (fun (v, _) -> v <= version) item.versions with
      | Some (_, value) -> value
      | None -> init
    in
    item.versions <- insert_desc version seed item.versions;
    if not created_item then t.copies_created <- t.copies_created + 1;
    note_version_count t item
  end

let get_or_add_item t key =
  match find_item t key with
  | Some item -> item
  | None ->
      let item = { versions = [] } in
      Hashtbl.replace t.items key item;
      item

let write_upward t ~key ~version ~init ~f =
  let item = get_or_add_item t key in
  ensure_version t item version init;
  let updated = ref 0 in
  item.versions <-
    List.map
      (fun (v, value) ->
        if v >= version then begin
          incr updated;
          (v, f value)
        end
        else (v, value))
      item.versions;
  if !updated >= 2 then t.dual_writes <- t.dual_writes + 1

let write_exact t ~key ~version ~init ~f =
  let item = get_or_add_item t key in
  ensure_version t item version init;
  item.versions <-
    List.map
      (fun (v, value) -> if v = version then (v, f value) else (v, value))
      item.versions

let gc t ~new_read_version =
  let vr = new_read_version in
  if vr > t.gc_floor then t.gc_floor <- vr;
  (* Each item is trimmed independently; no ordering escapes the table. *)
  Hashtbl.iter
    (fun _key item ->
      if List.mem_assoc vr item.versions then
        item.versions <- List.filter (fun (v, _) -> v >= vr) item.versions
      else begin
        (* Relabel the latest version below vr as vr; keep higher versions. *)
        match List.find_opt (fun (v, _) -> v < vr) item.versions with
        | None -> ()
        | Some (_, value) ->
            let higher = List.filter (fun (v, _) -> v > vr) item.versions in
            item.versions <- higher @ [ (vr, value) ]
      end)
    t.items

let versions_of t ~key =
  match find_item t key with None -> [] | Some item -> List.map fst item.versions

let keys t =
  Hashtbl.fold (fun k item acc -> if item.versions = [] then acc else k :: acc)
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
