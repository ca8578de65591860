type t = { name : string; id : int }

(* Every key this process has made, in an open-addressing table probed
   from an FNV-1a hash of the name: at most half full, doubled when it
   would pass that, [none] in every free slot. Only [intern] reads it, and
   only by lookup, so its layout never reaches an output. An [intern]
   hashes the name once and allocates only a new key's record: the
   synthetic generator interns its whole key table at set-up, 51,200
   names on a 1,024-node run. *)
let none = { name = ""; id = -1 }
let table = ref (Array.make 1024 none)
let count = ref 0

let hash name =
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length name - 1 do
    h := (!h lxor Char.code name.[i]) * 0x01000193
  done;
  !h land max_int

(* The slot holding [name]'s key, or the free slot where its probe ends. *)
let rec probe slots mask name i =
  let k = slots.(i) in
  if k == none || String.equal k.name name then i else probe slots mask name ((i + 1) land mask)

let slot_of slots name =
  let mask = Array.length slots - 1 in
  probe slots mask name (hash name land mask)

let grow () =
  let slots = Array.make (2 * Array.length !table) none in
  Array.iter (fun k -> if k != none then slots.(slot_of slots k.name) <- k) !table;
  table := slots

let intern name =
  let i = slot_of !table name in
  let found = !table.(i) in
  if found != none then found
  else begin
    let key = { name; id = !count } in
    incr count;
    if 2 * !count <= Array.length !table then !table.(i) <- key
    else begin
      grow ();
      !table.(slot_of !table name) <- key
    end;
    key
  end

let name k = k.name
let id k = k.id
let equal a b = a.id = b.id
let compare a b = if a.id = b.id then 0 else String.compare a.name b.name
