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

(* Whether the ids strictly ascend after [prev]: the history's own order
   is then the dense order. *)
let rec ascending prev = function
  | [] -> true
  | ((spec : Spec.t), _) :: rest ->
      spec.Spec.id > prev && ascending spec.Spec.id rest

(* The entries sorted by id; of an id that repeats, the last entry in
   history order is kept. *)
let by_id history =
  let txns = Array.of_list history in
  let id i = (fst txns.(i)).Spec.id in
  Array.stable_sort
    (fun ((a : Spec.t), _) ((b : Spec.t), _) -> Int.compare a.Spec.id b.Spec.id)
    txns;
  let n = Array.length txns and kept = ref 0 in
  for i = 0 to n - 1 do
    if i = n - 1 || id (i + 1) <> id i then begin
      txns.(!kept) <- txns.(i);
      incr kept
    end
  done;
  if !kept = n then txns else Array.sub txns 0 !kept

(* [f d key overwrote] for every write anywhere in [st]'s tree. Plain
   recursion, so a walk allocates nothing. *)
let rec each_write f d (st : Spec.subtxn) =
  each_op f d st.Spec.ops;
  each_child f d st.Spec.children

and each_op f d = function
  | [] -> ()
  | op :: ops ->
      if Op.is_write op then f d (Op.key op) (not (Op.commuting_write op));
      each_op f d ops

and each_child f d = function
  | [] -> ()
  | st :: rest ->
      each_write f d st;
      each_child f d rest

let build history =
  let txns =
    if ascending min_int history then Array.of_list history else by_id history
  in
  let n = Array.length txns in
  let ids = Array.map (fun ((spec : Spec.t), _) -> spec.Spec.id) txns in
  (* [f d key overwrote] for every write of every effect-ful update, the
     updates in id order. *)
  let each_update_write f =
    for d = 0 to n - 1 do
      if effectful txns.(d) then each_write f d (fst txns.(d)).Spec.root
    done
  in
  (* Key ids run below [keys], and there are at most [writes] slots. *)
  let keys = ref 0 and writes = ref 0 in
  each_update_write (fun _ (key : Key.t) _ ->
      keys := Int.max !keys (key.Key.id + 1);
      incr writes);
  let slots = Int.min !keys !writes in
  (* Slot every written key, in order of first write, and count each
     slot's writers. An update counts once per key, however often it
     writes it: [last.(s)] is the latest update counted in slot [s]. *)
  let slot_of = Array.make !keys (-1) and n_slots = ref 0 in
  let count = Array.make slots 0 and last = Array.make slots (-1) in
  each_update_write (fun d (key : Key.t) _ ->
      let id = key.Key.id in
      if slot_of.(id) < 0 then begin
        slot_of.(id) <- !n_slots;
        incr n_slots
      end;
      let s = slot_of.(id) in
      if last.(s) <> d then begin
        last.(s) <- d;
        count.(s) <- count.(s) + 1
      end);
  let n_slots = !n_slots in
  let starts = Array.make (n_slots + 1) 0 in
  for s = 0 to n_slots - 1 do
    starts.(s + 1) <- starts.(s) + count.(s)
  done;
  let total = starts.(n_slots) in
  let w_id = Array.make total 0 and w_dense = Array.make total 0 in
  let w_overwrote = Array.make total false in
  (* Filled in id order, so every slice ascends by id. [next.(s)] is slot
     [s]'s first free position; an update writing a key again finds its
     own entry just below it. *)
  let next = count in
  Array.blit starts 0 next 0 n_slots;
  each_update_write (fun d (key : Key.t) over ->
      let s = slot_of.(key.Key.id) in
      let p = next.(s) in
      if p > starts.(s) && w_dense.(p - 1) = d then
        w_overwrote.(p - 1) <- w_overwrote.(p - 1) || over
      else begin
        w_id.(p) <- ids.(d);
        w_dense.(p) <- d;
        w_overwrote.(p) <- over;
        next.(s) <- p + 1
      end);
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
