type event = { time : float; site : string; what : string }

(* Bounded ring buffer. [buf] grows geometrically up to [cap]; once full,
   [emit] overwrites the oldest slot in O(1). [start] is the index of the
   oldest retained event, [len] the retained count, [total] every event ever
   emitted (retained or evicted). The dummy event fills unused slots so they
   never pin evicted events against the GC. *)
type t = {
  cap : int;
  mutable buf : event array;
  mutable start : int;
  mutable len : int;
  mutable total : int;
}

let dummy = { time = 0.; site = ""; what = "" }
let default_capacity = 65_536

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { cap = capacity; buf = [||]; start = 0; len = 0; total = 0 }

let capacity t = t.cap
let length t = t.len
let total t = t.total
let dropped t = t.total - t.len

(* Grow the backing array (oldest-first relayout), doubling up to [cap]. *)
let grow t =
  let old = Array.length t.buf in
  let ncap = if old = 0 then min t.cap 256 else min t.cap (old * 2) in
  let nbuf = Array.make ncap dummy in
  for i = 0 to t.len - 1 do
    nbuf.(i) <- t.buf.((t.start + i) mod old)
  done;
  t.buf <- nbuf;
  t.start <- 0

let emit t ~time ~site what =
  let c = { time; site; what } in
  let size = Array.length t.buf in
  if t.len = size && size < t.cap then grow t;
  let size = Array.length t.buf in
  if t.len < size then begin
    t.buf.((t.start + t.len) mod size) <- c;
    t.len <- t.len + 1
  end
  else begin
    (* Full at capacity: overwrite the oldest slot. *)
    t.buf.(t.start) <- c;
    t.start <- (t.start + 1) mod size
  end;
  t.total <- t.total + 1

let iter t f =
  let size = Array.length t.buf in
  for i = 0 to t.len - 1 do
    f t.buf.((t.start + i) mod size)
  done

let events t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) dummy;
  t.start <- 0;
  t.len <- 0;
  t.total <- 0

(* Allocation-free substring scan (no [String.sub] per position). *)
let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else begin
    (* lint: unsafe-ok — bounds proven: [scan] only calls [matches_at i 0]
       under [i + m <= n], and [matches_at] reads [s.(i + j)] with [j < m]
       and [sub.(j)] with [j < m]; a checked access here would bounds-test
       every byte of every retained trace line on [find]. *)
    let rec matches_at i j =
      j = m || (String.unsafe_get s (i + j) = String.unsafe_get sub j
                && matches_at i (j + 1))
    in
    let rec scan i = i + m <= n && (matches_at i 0 || scan (i + 1)) in
    scan 0
  end

let find t pattern =
  let acc = ref [] in
  iter t (fun e -> if contains_substring e.what pattern then acc := e :: !acc);
  List.rev !acc

let render t ~sites =
  let buf = Buffer.create 1024 in
  let columns = sites in
  let width = 34 in
  let pad s =
    if String.length s >= width then String.sub s 0 width
    else s ^ String.make (width - String.length s) ' '
  in
  Buffer.add_string buf (pad "TIME");
  List.iter (fun s -> Buffer.add_string buf (pad ("SITE " ^ s))) columns;
  Buffer.add_char buf '\n';
  iter t (fun e ->
      Buffer.add_string buf (pad (Printf.sprintf "%.2f" e.time));
      let matched = ref false in
      List.iter
        (fun s ->
          if s = e.site && not !matched then begin
            matched := true;
            Buffer.add_string buf (pad e.what)
          end
          else Buffer.add_string buf (pad ""))
        columns;
      if not !matched then Buffer.add_string buf (e.site ^ ": " ^ e.what);
      Buffer.add_char buf '\n')
  ;
  Buffer.contents buf
