module Spec = Txn.Spec
module Result = Txn.Result
module Value = Txn.Value
module Op = Txn.Op
module Key = Store.Key

type t = {
  ids : int array;
  txns : (Spec.t * Result.t) array;
  slot_of : int array;
  starts : int array;
  w_id : int array;
  w_dense : int array;
  w_overwrote : bool array;
}

(* Committed, or aborted through compensation. *)
let has_effect (res : Result.t) =
  match res.Result.outcome with
  | Result.Committed -> true
  | Result.Aborted "compensated" -> true
  | Result.Aborted _ -> false

let effectful ((spec : Spec.t), res) =
  spec.Spec.kind <> Spec.Read_only && has_effect res

let effectless ((spec : Spec.t), res) =
  spec.Spec.kind <> Spec.Read_only && not (has_effect res)

let search ids id =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let x = ids.(mid) in
      if x = id then mid else if x < id then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ids)

let find t id = search t.ids id

(* The keys an update writes, each with whether any write to it anywhere
   in the tree is an [Overwrite]. *)
let write_kinds (spec : Spec.t) =
  let note acc op =
    if not (Op.is_write op) then acc
    else
      let key = Op.key op and over = not (Op.commuting_write op) in
      if List.exists (fun (k, _) -> Key.equal k key) acc then
        List.map
          (fun (k, o) -> if Key.equal k key then (k, o || over) else (k, o))
          acc
      else (key, over) :: acc
  in
  let rec walk acc (st : Spec.subtxn) =
    List.fold_left walk (List.fold_left note acc st.Spec.ops) st.Spec.children
  in
  walk [] spec.Spec.root

(* Write operations anywhere in an update's tree: at least its distinct
   written keys. *)
let write_ops (spec : Spec.t) =
  let rec walk n (st : Spec.subtxn) =
    List.fold_left walk
      (List.fold_left
         (fun n op -> if Op.is_write op then n + 1 else n)
         n st.Spec.ops)
      st.Spec.children
  in
  walk 0 spec.Spec.root

let build history =
  let ids = Array.make (List.length history) 0 in
  List.iteri (fun i ((spec : Spec.t), _) -> ids.(i) <- spec.Spec.id) history;
  Array.stable_sort Int.compare ids;
  let distinct = ref 0 in
  Array.iteri
    (fun i id ->
      if i = 0 || id <> ids.(i - 1) then begin
        ids.(!distinct) <- id;
        incr distinct
      end)
    ids;
  let ids =
    if !distinct = Array.length ids then ids else Array.sub ids 0 !distinct
  in
  let n = Array.length ids in
  let txns =
    match history with
    | [] -> [||]
    | first :: _ ->
        let txns = Array.make n first in
        List.iter
          (fun (((spec : Spec.t), _) as entry) ->
            txns.(search ids spec.Spec.id) <- entry)
          history;
        txns
  in
  let ops =
    Array.fold_left
      (fun ops txn -> if effectful txn then ops + write_ops (fst txn) else ops)
      0 txns
  in
  (* Updates in id order: slot every written key, in order of first write,
     and note each write as [slot lsl 1 lor overwrote]; a counting sort by
     slot then leaves every slot's writers sorted by id. [slot_of] maps a
     key id to its slot (-1 for none), grown past the largest written id. *)
  let slot_of = ref [||] and n_slots = ref 0 in
  let slot (key : Key.t) =
    let id = key.Key.id and len = Array.length !slot_of in
    if id >= len then begin
      let grown = Array.make (max (id + 1) (2 * len)) (-1) in
      Array.blit !slot_of 0 grown 0 len;
      slot_of := grown
    end;
    if !slot_of.(id) < 0 then begin
      !slot_of.(id) <- !n_slots;
      incr n_slots
    end;
    !slot_of.(id)
  in
  let writes = Array.make ops 0 and total = ref 0 in
  let written = Array.make n 0 in
  for d = 0 to n - 1 do
    if effectful txns.(d) then
      List.iter
        (fun (key, over) ->
          writes.(!total) <- (slot key lsl 1) lor Bool.to_int over;
          incr total;
          written.(d) <- written.(d) + 1)
        (write_kinds (fst txns.(d)))
  done;
  let total = !total and n_slots = !n_slots and slot_of = !slot_of in
  (* [starts.(s)] counts, then ends, then (filled from the back) begins
     slot [s]. *)
  let starts = Array.make (n_slots + 1) 0 in
  for i = 0 to total - 1 do
    let s = writes.(i) lsr 1 in
    starts.(s) <- starts.(s) + 1
  done;
  for s = 1 to n_slots do
    starts.(s) <- starts.(s) + starts.(s - 1)
  done;
  let w_id = Array.make total 0 and w_dense = Array.make total 0 in
  let w_overwrote = Array.make total false in
  let i = ref total in
  for d = n - 1 downto 0 do
    for _ = 1 to written.(d) do
      decr i;
      let s = writes.(!i) lsr 1 in
      let p = starts.(s) - 1 in
      starts.(s) <- p;
      w_id.(p) <- ids.(d);
      w_dense.(p) <- d;
      w_overwrote.(p) <- writes.(!i) land 1 = 1
    done
  done;
  { ids; txns; slot_of; starts; w_id; w_dense; w_overwrote }

let writers t (key : Key.t) =
  let id = key.Key.id in
  let s = if id < Array.length t.slot_of then t.slot_of.(id) else -1 in
  if s < 0 then (0, 0) else (t.starts.(s), t.starts.(s + 1))

(* Both sequences descend: [p] is the highest writer position not yet
   reported. Strays are met in descending order, so consing them up leaves
   them ascending. *)
let merge t (first, stop) tags ~seen ~unseen ~stray =
  let rec walk p strays = function
    | [] ->
        for q = p downto first do
          unseen q
        done;
        List.iter stray strays
    | tag :: rest as tags ->
        if p < first then walk p (tag :: strays) rest
        else
          let w = t.w_id.(p) in
          if w > tag then begin
            unseen p;
            walk (p - 1) strays tags
          end
          else if w = tag then begin
            seen p;
            walk (p - 1) strays rest
          end
          else walk p (tag :: strays) rest
  in
  walk (stop - 1) [] (Value.Writers.descending tags)

let observed reads =
  let rec add key tags = function
    | [] -> [ (key, tags) ]
    | (k, prev) :: rest when Key.equal k key ->
        (k, Value.Writers.union prev tags) :: rest
    | kt :: rest -> kt :: add key tags rest
  in
  List.fold_left
    (fun acc (key, (v : Value.t)) -> add key v.Value.writers acc)
    [] reads
