let required placement ~lo ~n ~live =
  let req = Array.init n (fun i -> live (lo + i)) in
  let g0 = Placement.group_of_node placement lo in
  let group i = Placement.group_of_node placement (lo + i) - g0 in
  let any_live = Array.make (group (n - 1) + 1) false in
  Array.iteri (fun i l -> if l then any_live.(group i) <- true) req;
  (* A fully-dead group has no live representative; the wait must then
     hold out for one of its members to restart rather than excuse them
     all, so every member stays required. *)
  Array.iteri (fun i _ -> if not any_live.(group i) then req.(i) <- true) req;
  (req, Array.exists not any_live)

let count_bits = 40
let entry ~peer ~count = (peer lsl count_bits) lor count
let peer_of e = e lsr count_bits
let count_of e = e land ((1 lsl count_bits) - 1)

type round = {
  rows : int array array;
  cols : int array array;
  replied : bool array;
}

let round m =
  { rows = Array.make m [||]; cols = Array.make m [||]; replied = Array.make m false }

let count_replied replied (v : int array) =
  Array.fold_left (fun n e -> if replied.(peer_of e) then n + 1 else n) 0 v

(* Every R entry (p, q, n) between members that replied must appear in q's
   column as (p, n). Rows are visited in ascending p, so each column is
   searched from a cursor that only moves forward: O(m + entries) in all.
   Once every R entry has its partner, equal entry counts on the two sides
   leave no C entry without one. *)
let settled rd =
  let m = Array.length rd.replied in
  let cursor = Array.make m 0 in
  let entries_r = ref 0 and entries_c = ref 0 in
  let exception Mismatch in
  try
    for p = 0 to m - 1 do
      if rd.replied.(p) then begin
        Array.iter
          (fun e ->
            let q = peer_of e in
            if rd.replied.(q) then begin
              incr entries_r;
              let (col : int array) = rd.cols.(q) in
              let partner = entry ~peer:p ~count:(count_of e) in
              let j = ref cursor.(q) in
              while !j < Array.length col && col.(!j) < partner do
                incr j
              done;
              cursor.(q) <- !j;
              if !j = Array.length col || col.(!j) <> partner then raise Mismatch
            end)
          rd.rows.(p);
        entries_c := !entries_c + count_replied rd.replied rd.cols.(p)
      end
    done;
    !entries_r = !entries_c
  with Mismatch -> false

(* [a] and [b] hold the same entries at peers that replied to both rounds. *)
let same_over prev cur (a : int array) (b : int array) =
  let rec skip (v : int array) k =
    if k < Array.length v && not (prev.replied.(peer_of v.(k)) && cur.replied.(peer_of v.(k)))
    then skip v (k + 1)
    else k
  in
  let rec go i j =
    let i = skip a i and j = skip b j in
    if i = Array.length a || j = Array.length b then
      i = Array.length a && j = Array.length b
    else a.(i) = b.(j) && go (i + 1) (j + 1)
  in
  go 0 0

let stable prev cur =
  let rec go p =
    p = Array.length cur.replied
    || ((not (prev.replied.(p) && cur.replied.(p)))
       || same_over prev cur prev.rows.(p) cur.rows.(p)
          && same_over prev cur prev.cols.(p) cur.cols.(p))
       && go (p + 1)
  in
  go 0
