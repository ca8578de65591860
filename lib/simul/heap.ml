type 'a t = {
  leq : 'a -> 'a -> bool;
  dummy : 'a;
  mutable data : 'a array;
  mutable size : int;
}

(* For a total preorder, [leq x y && not (leq y x)] is equivalent to
   [not (leq y x)] (totality gives [leq x y || leq y x]), so a single
   predicate call per comparison suffices on the sift paths. *)
let create ?(capacity = 0) ~dummy ~leq () =
  let capacity = max capacity 0 in
  { leq; dummy; data = Array.make capacity dummy; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let grow h =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap h.dummy in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

(* Hole-based sift-up: move parents down into the hole until [x]'s position
   is found, then write [x] once — half the array stores of swap-based
   sifting, one ordering call per level. *)
let add h x =
  grow h;
  let data = h.data in
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if not (h.leq data.(parent) x) then begin
      data.(!i) <- data.(parent);
      i := parent
    end
    else continue_ := false
  done;
  data.(!i) <- x

let pop_min h =
  if h.size = 0 then raise Not_found;
  let data = h.data in
  let min = data.(0) in
  h.size <- h.size - 1;
  let n = h.size in
  if n > 0 then begin
    let x = data.(n) in
    (* Clear the vacated slot: a stale reference there would pin the popped
       element (and any closures it captures) against the GC for the life
       of the heap. *)
    data.(n) <- h.dummy;
    (* Hole-based sift-down of [x] from the root. *)
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      let sv = ref x in
      if l < n && not (h.leq !sv data.(l)) then begin
        smallest := l;
        sv := data.(l)
      end;
      if r < n && not (h.leq !sv data.(r)) then begin
        smallest := r;
        sv := data.(r)
      end;
      if !smallest <> !i then begin
        data.(!i) <- !sv;
        i := !smallest
      end
      else continue_ := false
    done;
    data.(!i) <- x
  end
  else
    (* Emptied: clear the root slot too, so the last element popped does not
       stay reachable through the heap. *)
    data.(0) <- h.dummy;
  min

let top h = if h.size = 0 then raise Not_found else h.data.(0)

(* Keep the backing array (capacity reuse for the steady-state event loop),
   but clear every slot so cleared elements become collectable. *)
let clear h =
  Array.fill h.data 0 (Array.length h.data) h.dummy;
  h.size <- 0
