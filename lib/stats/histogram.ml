type t = {
  least : float;
  growth : float;
  (* counts.(0) is the zero/negative bucket; counts.(i) for i >= 1 covers
     (bound (i-1), bound i], where bound 0 = 0 and bound 1 = least. *)
  mutable counts : int array;
  mutable bounds : float array;
      (* bounds.(i) = bound i, as long as [counts]: [add] finds its bucket
         by binary search here, computing no logarithm and no power *)
  summary : Summary.t;
}

(* The one formula for bucket bounds: the table holds its values. *)
let formula ~least ~growth i =
  if i = 0 then 0. else least *. (growth ** float_of_int (i - 1))

let table ~least ~growth n = Array.init n (formula ~least ~growth)

let create ?(least = 1e-6) ?(growth = 1.25) () =
  if least <= 0. then invalid_arg "Histogram.create: least must be positive";
  if growth <= 1. then invalid_arg "Histogram.create: growth must exceed 1";
  {
    least;
    growth;
    counts = Array.make 64 0;
    bounds = table ~least ~growth 64;
    summary = Summary.create ();
  }

let bound_of h i =
  if i < Array.length h.bounds then h.bounds.(i)
  else formula ~least:h.least ~growth:h.growth i

(* Doubles both arrays; the new bounds come from the same formula. *)
let grow h =
  let len = Array.length h.counts in
  let counts = Array.make (2 * len) 0 in
  Array.blit h.counts 0 counts 0 len;
  h.counts <- counts;
  h.bounds <- table ~least:h.least ~growth:h.growth (2 * len)

(* The smallest [i] with [x <= bound i]: bucket ranges are
   upper-inclusive, so an exact bound lands in the bucket it bounds. The
   table grows until its last bound covers [x]. *)
let bucket_of h x =
  if x <= 0. then 0
  else if x <= h.least then 1
  else begin
    if Float.is_nan x then invalid_arg "Histogram.bucket_of: nan";
    while x > h.bounds.(Array.length h.bounds - 1) do
      grow h
    done;
    let bounds = h.bounds in
    (* x > bounds.(lo) and x <= bounds.(hi) *)
    let lo = ref 1 and hi = ref (Array.length bounds - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if x <= bounds.(mid) then hi := mid else lo := mid
    done;
    !hi
  end

let add h x =
  Summary.add h.summary x;
  let b = bucket_of h x in
  h.counts.(b) <- h.counts.(b) + 1

let count h = Summary.count h.summary
let max h = if count h = 0 then 0. else Summary.max h.summary
let min h = if count h = 0 then 0. else Summary.min h.summary

let percentile h p =
  if p < 0. || p > 100. then invalid_arg "Histogram.percentile";
  let n = count h in
  if n = 0 then 0.
  else begin
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))
    in
    let rec scan i seen =
      if i >= Array.length h.counts then max h
      else
        let seen = seen + h.counts.(i) in
        if seen >= rank then Float.min h.bounds.(i) (max h) else scan (i + 1) seen
    in
    scan 0 0
  end

let merge a b =
  if a.least <> b.least || a.growth <> b.growth then
    invalid_arg "Histogram.merge: incompatible bucket layouts";
  let len = Stdlib.max (Array.length a.counts) (Array.length b.counts) in
  let counts = Array.make len 0 in
  Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) a.counts;
  Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) b.counts;
  let bounds = if Array.length a.bounds = len then a.bounds else b.bounds in
  { a with counts; bounds; summary = Summary.merge a.summary b.summary }

let pp ppf h =
  if count h = 0 then Format.fprintf ppf "empty"
  else
    Format.fprintf ppf "n=%d p50=%.4g p90=%.4g p99=%.4g max=%.4g" (count h)
      (percentile h 50.) (percentile h 90.) (percentile h 99.) (max h)
