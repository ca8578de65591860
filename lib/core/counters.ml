(* Windowed flat layout. The engine's GC keeps at most 3 consecutive
   versions live anywhere (§4's "three distinct numbers suffice"), so the
   common case is a dense window of [window] consecutive versions starting
   at the GC floor [base]. Each in-window version owns one slot
   ([version mod window]); its R and C rows are contiguous [nodes]-wide
   slices of two flat int arrays, so an incr is a tag compare plus one
   array store — no hashing, no per-version boxes — and, when the count
   leaves zero, an insert into the slot's short list of peers with
   traffic. Claiming a slot zeroes and a sparse snapshot reads only those
   peers, so neither costs [nodes]. Versions outside
   [base, base + window) — a late completion for a GC'd version, or a
   version opened before the floor caught up — fall back to a spill
   hashtable with the old boxed-row representation. [gc_below] advances
   [base], retires dead slots, and adopts spill rows the window now
   covers, so the slot invariant (slots hold in-window versions only)
   is re-established at every GC edge.

   Every table also reports to its census: a version enters the census
   when a table claims a slot or creates a spill row for it, and leaves
   when [gc_below] frees that slot or row. Adoption moves a row from the
   spill table into a slot without the table ever ceasing to hold the
   version, so it leaves the census alone. *)

let window = 4

(* Version -> number of the census's tables holding it; a version no table
   holds is not a key, so [Hashtbl.length] is the distinct count. *)
type census = (int, int) Hashtbl.t

let census () : census = Hashtbl.create 8
let distinct (c : census) = Hashtbl.length c

let census_add (c : census) v =
  Hashtbl.replace c v (1 + Option.value (Hashtbl.find_opt c v) ~default:0)

let census_drop (c : census) v =
  match Hashtbl.find_opt c v with
  | Some 1 -> Hashtbl.remove c v
  | Some k -> Hashtbl.replace c v (k - 1)
  | None -> invalid_arg "Counters: census drops a version it never counted"

type row = { req : int array; comp : int array }

(* One side (R or C) of the dense window: [window] rows of [nodes] counts,
   slot-major, and per slot the peers whose count is nonzero, ascending
   (the first [nz_len.(s)] cells of [nz.(s)], grown by doubling). The
   peer lists make a slot's claim and its sparse snapshot cost the peers
   it has traffic with, not [nodes]. *)
type side = { cells : int array; nz : int array array; nz_len : int array }

let side ~nodes =
  {
    cells = Array.make (window * nodes) 0;
    nz = Array.make window [||];
    nz_len = Array.make window 0;
  }

type t = {
  nodes : int;
  census : census;
  mutable base : int;  (* window covers versions in [base, base + window) *)
  slot_ver : int array;  (* slot -> version held there, or -1 when free *)
  req : side;  (* R rows for slot versions *)
  comp : side;  (* C rows for slot versions *)
  spill : (int, row) Hashtbl.t;  (* out-of-window versions only *)
}

let create ~census ~nodes =
  if nodes <= 0 then invalid_arg "Counters.create: nodes must be positive";
  {
    nodes;
    census;
    base = 0;
    slot_ver = Array.make window (-1);
    req = side ~nodes;
    comp = side ~nodes;
    spill = Hashtbl.create 8;
  }

let[@inline] in_window t v = v >= t.base && v - t.base < window
let[@inline] slot_of v = v land (window - 1)

(* Insert [q] into slot [s]'s ascending peer list. *)
let note_peer d s q =
  let n = d.nz_len.(s) in
  if n = Array.length d.nz.(s) then begin
    let grown = Array.make ((2 * n) + 4) 0 in
    Array.blit d.nz.(s) 0 grown 0 n;
    d.nz.(s) <- grown
  end;
  let a = d.nz.(s) in
  let i = ref n in
  while !i > 0 && a.(!i - 1) > q do
    a.(!i) <- a.(!i - 1);
    decr i
  done;
  a.(!i) <- q;
  d.nz_len.(s) <- n + 1

let bump d ~nodes s q =
  let i = (s * nodes) + q in
  let x = d.cells.(i) in
  if x = 0 then note_peer d s q;
  d.cells.(i) <- x + 1

(* Zero slot [s]'s nonzero cells: the slot holds no counts afterwards. *)
let clear d ~nodes s =
  let a = d.nz.(s) in
  for k = 0 to d.nz_len.(s) - 1 do
    d.cells.((s * nodes) + a.(k)) <- 0
  done;
  d.nz_len.(s) <- 0

(* Load a dense row into slot [s], rebuilding its peer list. *)
let load d ~nodes s (row : int array) =
  Array.blit row 0 d.cells (s * nodes) nodes;
  d.nz_len.(s) <- 0;
  Array.iteri (fun q x -> if x <> 0 then note_peer d s q) row

(* Claim the slot for an in-window version. Two distinct versions inside a
   [window]-wide range cannot share a residue mod [window], and [gc_below]
   frees every tag below [base] before advancing it, so the slot is free;
   it may still hold the counts of the version it held last. *)
let claim_slot t v =
  let s = slot_of v in
  clear t.req ~nodes:t.nodes s;
  clear t.comp ~nodes:t.nodes s;
  t.slot_ver.(s) <- v;
  census_add t.census v;
  s

let spill_row t v =
  match Hashtbl.find_opt t.spill v with
  | Some r -> r
  | None ->
      let r = { req = Array.make t.nodes 0; comp = Array.make t.nodes 0 } in
      Hashtbl.replace t.spill v r;
      census_add t.census v;
      r

let ensure_version t v =
  if in_window t v then begin
    if t.slot_ver.(slot_of v) <> v then ignore (claim_slot t v)
  end
  else ignore (spill_row t v)

let incr_r t ~version ~dst =
  if in_window t version then begin
    let s = slot_of version in
    let s = if t.slot_ver.(s) = version then s else claim_slot t version in
    bump t.req ~nodes:t.nodes s dst
  end
  else begin
    let r = spill_row t version in
    r.req.(dst) <- r.req.(dst) + 1
  end

let incr_c t ~version ~src =
  if in_window t version then begin
    let s = slot_of version in
    let s = if t.slot_ver.(s) = version then s else claim_slot t version in
    bump t.comp ~nodes:t.nodes s src
  end
  else begin
    let r = spill_row t version in
    r.comp.(src) <- r.comp.(src) + 1
  end

(* Reads: a matching slot tag implies the version is in-window and
   allocated, so no range check is needed on the fast path. *)

let r t ~version ~dst =
  let s = slot_of version in
  if t.slot_ver.(s) = version then t.req.cells.((s * t.nodes) + dst)
  else
    match Hashtbl.find_opt t.spill version with
    | None -> 0
    | Some row -> row.req.(dst)

let c t ~version ~src =
  let s = slot_of version in
  if t.slot_ver.(s) = version then t.comp.cells.((s * t.nodes) + src)
  else
    match Hashtbl.find_opt t.spill version with
    | None -> 0
    | Some row -> row.comp.(src)

(* Sparse snapshots: one packed (peer, count) entry per nonzero count
   ({!Repl.Quorum.entry}). A slot walks its peer list; a spill row (rare: a
   resurrected or early version) is scanned. A row with no traffic is the
   empty array, which OCaml does not allocate. *)

let sparse_slot d ~nodes s =
  let a = d.nz.(s) in
  Array.init d.nz_len.(s) (fun k ->
      Repl.Quorum.entry ~peer:a.(k) ~count:d.cells.((s * nodes) + a.(k)))

let sparse_row (row : int array) =
  let out = ref [] in
  for q = Array.length row - 1 downto 0 do
    if row.(q) <> 0 then out := Repl.Quorum.entry ~peer:q ~count:row.(q) :: !out
  done;
  Array.of_list !out

let sparse_r t ~version =
  let s = slot_of version in
  if t.slot_ver.(s) = version then sparse_slot t.req ~nodes:t.nodes s
  else
    match Hashtbl.find_opt t.spill version with
    | None -> [||]
    | Some row -> sparse_row row.req

let sparse_c t ~version =
  let s = slot_of version in
  if t.slot_ver.(s) = version then sparse_slot t.comp ~nodes:t.nodes s
  else
    match Hashtbl.find_opt t.spill version with
    | None -> [||]
    | Some row -> sparse_row row.comp

let holds t v = t.slot_ver.(slot_of v) = v || Hashtbl.mem t.spill v

let versions t =
  (* Hash order is erased by the sort below. *)
  let acc = Hashtbl.fold (fun v _ acc -> v :: acc) t.spill [] in
  let acc =
    Array.fold_left (fun acc v -> if v >= 0 then v :: acc else acc) acc t.slot_ver
  in
  List.sort Int.compare acc

let census_versions ?(excluding = []) c =
  (* A version survives the exclusion while some table outside [excluding]
     holds it: more holders than excluded tables holding it. Hash order is
     erased by the sort below. *)
  Hashtbl.fold
    (fun v k acc ->
      let excluded =
        List.fold_left (fun n t -> if holds t v then n + 1 else n) 0 excluding
      in
      if excluded < k then v :: acc else acc)
    c []
  |> List.sort Int.compare

let gc_below t v =
  (* Drop spill rows below the floor. Collect-then-remove: removals are
     per-version independent, so staging order is irrelevant, and mutating
     a Hashtbl mid-fold is unspecified. *)
  if Hashtbl.length t.spill > 0 then begin
    let dead =
      (* lint: hash-order-ok — independent removals, commutative collection. *)
      Hashtbl.fold (fun w _ acc -> if w < v then w :: acc else acc) t.spill []
    in
    List.iter
      (fun w ->
        Hashtbl.remove t.spill w;
        census_drop t.census w)
      dead
  end;
  if v > t.base then begin
    for s = 0 to window - 1 do
      let w = t.slot_ver.(s) in
      if w >= 0 && w < v then begin
        t.slot_ver.(s) <- -1;
        census_drop t.census w
      end
    done;
    t.base <- v;
    (* Adopt spill rows the advanced window now covers. Distinct in-window
       versions land in distinct slots, so adoption order is irrelevant. *)
    if Hashtbl.length t.spill > 0 then begin
      let adopt =
        (* lint: hash-order-ok — per-version independent slot moves. *)
        Hashtbl.fold
          (fun w (row : row) acc -> if in_window t w then (w, row) :: acc else acc)
          t.spill []
      in
      List.iter
        (fun (w, (row : row)) ->
          let s = slot_of w in
          load t.req ~nodes:t.nodes s row.req;
          load t.comp ~nodes:t.nodes s row.comp;
          t.slot_ver.(s) <- w;
          Hashtbl.remove t.spill w)
        adopt
    end
  end
