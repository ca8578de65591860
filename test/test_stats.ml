(* Tests for the metrics library. *)

module Summary = Stats.Summary
module Histogram = Stats.Histogram
module Counter_set = Stats.Counter_set
module Table = Stats.Table
module Series = Stats.Series

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg
let checkf_approx eps msg = Alcotest.(check (float eps)) msg

(* ---------------------------------------------------------- summary *)

let summary_empty () =
  let s = Summary.create () in
  checki "count" 0 (Summary.count s);
  checkf "mean" 0. (Summary.mean s);
  checkf "variance" 0. (Summary.variance s)

let summary_known_values () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  checki "count" 8 (Summary.count s);
  checkf "mean" 5. (Summary.mean s);
  (* Sample variance of that data set is 32/7. *)
  checkf_approx 1e-9 "variance" (32. /. 7.) (Summary.variance s);
  checkf "min" 2. (Summary.min s);
  checkf "max" 9. (Summary.max s);
  checkf "total" 40. (Summary.total s)

let summary_single () =
  let s = Summary.create () in
  Summary.add s 3.5;
  checkf "mean" 3.5 (Summary.mean s);
  checkf "variance of one" 0. (Summary.variance s)

let summary_merge_matches_combined =
  QCheck.Test.make ~name:"merge equals observing both streams" ~count:200
    QCheck.(
      pair (list (float_bound_exclusive 100.)) (list (float_bound_exclusive 100.)))
    (fun (xs, ys) ->
      let a = Summary.create () and b = Summary.create () in
      List.iter (Summary.add a) xs;
      List.iter (Summary.add b) ys;
      let merged = Summary.merge a b in
      let direct = Summary.create () in
      List.iter (Summary.add direct) (xs @ ys);
      Summary.count merged = Summary.count direct
      && Float.abs (Summary.mean merged -. Summary.mean direct) < 1e-6
      && Float.abs (Summary.variance merged -. Summary.variance direct) < 1e-6)

(* -------------------------------------------------------- histogram *)

let histogram_empty () =
  let h = Histogram.create () in
  checki "count" 0 (Histogram.count h);
  checkf "p50" 0. (Histogram.percentile h 50.)

let histogram_percentiles_bounded () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i /. 1000.)
  done;
  let p50 = Histogram.percentile h 50. in
  let p99 = Histogram.percentile h 99. in
  (* Bucketed estimates overshoot by at most the growth factor. *)
  checkb "p50 in range" true (p50 >= 0.5 && p50 <= 0.5 *. 1.25);
  checkb "p99 in range" true (p99 >= 0.99 && p99 <= 0.99 *. 1.25);
  checkb "p100 is max" true (Histogram.percentile h 100. = Histogram.max h)

let histogram_zero_bucket () =
  let h = Histogram.create () in
  Histogram.add h 0.;
  Histogram.add h (-3.);
  Histogram.add h 5.;
  checki "count" 3 (Histogram.count h);
  checkb "p50 is zero bucket" true (Histogram.percentile h 50. = 0.)

let histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 1.; 2.; 3. ];
  List.iter (Histogram.add b) [ 4.; 5. ];
  let m = Histogram.merge a b in
  checki "count" 5 (Histogram.count m);
  checkf "max" 5. (Histogram.max m);
  checkf "min" 1. (Histogram.min m)

let histogram_merge_incompatible () =
  let a = Histogram.create ~growth:1.25 () in
  let b = Histogram.create ~growth:1.5 () in
  Alcotest.check_raises "layouts differ"
    (Invalid_argument "Histogram.merge: incompatible bucket layouts")
    (fun () -> ignore (Histogram.merge a b))

let histogram_invalid_args () =
  Alcotest.check_raises "least"
    (Invalid_argument "Histogram.create: least must be positive") (fun () ->
      ignore (Histogram.create ~least:0. ()));
  Alcotest.check_raises "growth"
    (Invalid_argument "Histogram.create: growth must exceed 1") (fun () ->
      ignore (Histogram.create ~growth:1. ()))

let histogram_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (float_bound_exclusive 1000.))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let ps = [ 0.; 10.; 25.; 50.; 75.; 90.; 99.; 100. ] in
      let vs = List.map (Histogram.percentile h) ps in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      nondecreasing vs)

let histogram_bucket_boundaries () =
  (* Exact bucket bounds are upper-inclusive: x = least * growth^k belongs
     to the bucket whose bound_of equals x, not the one above (the
     off-by-one inflated boundary percentiles). *)
  let h = Histogram.create ~least:1e-3 ~growth:1.25 () in
  checki "least lands in bucket 1" 1 (Histogram.bucket_of h 1e-3);
  for k = 1 to 40 do
    let x = 1e-3 *. (1.25 ** float_of_int k) in
    let b = Histogram.bucket_of h x in
    checki (Printf.sprintf "exact power k=%d" k) (k + 1) b;
    checkb "within documented range" true
      (x <= Histogram.bound_of h b && x > Histogram.bound_of h (b - 1) *. (1. -. 1e-12))
  done;
  (* Strictly interior values still land one bucket above their lower bound. *)
  checki "interior value" 3 (Histogram.bucket_of h (1e-3 *. 1.25 *. 1.1))

let histogram_boundary_percentile () =
  (* A histogram holding only the exact value least*growth must report a
     percentile of that bucket's bound, not the next bucket's. *)
  let h = Histogram.create ~least:1e-3 ~growth:1.25 () in
  let x = 1e-3 *. 1.25 in
  Histogram.add h x;
  Alcotest.(check (float 1e-12)) "p100 not inflated" x (Histogram.percentile h 100.);
  Alcotest.(check (float 1e-12)) "p50 not inflated" x (Histogram.percentile h 50.)

let histogram_bucket_bound_consistent =
  QCheck.Test.make ~name:"bucket_of respects bound_of ranges" ~count:500
    QCheck.(float_range 1e-9 1e4)
    (fun x ->
      let h = Histogram.create () in
      let b = Histogram.bucket_of h x in
      b >= 1
      && x <= Histogram.bound_of h b
      && (b = 1 || x > Histogram.bound_of h (b - 1) *. (1. -. 1e-12)))

(* The replaced bucket search, a logarithm settled against the power
   formula: the oracle for [bucket_of]'s table search. *)
let formula ~least ~growth i =
  if i = 0 then 0. else least *. (growth ** float_of_int (i - 1))

let log_bucket ~least ~growth x =
  if x <= 0. then 0
  else if x <= least then 1
  else
    let b = 2 + int_of_float (Float.floor (log (x /. least) /. log growth)) in
    if b > 1 && x <= formula ~least ~growth (b - 1) then b - 1
    else if x > formula ~least ~growth b then b + 1
    else b

(* The bound table holds exactly the formula's values, grown past its
   first 64; an exact bound lands in its own bucket, the float above it in
   the next, the float below it in its own, and the log oracle agrees on
   all three and on a value inside the bucket. *)
let histogram_table_matches_formula =
  QCheck.Test.make ~name:"bound table == formula, exact bounds and ulp neighbours" ~count:300
    QCheck.(triple (float_range 1e-9 1e-1) (float_range 1.01 3.) (int_range 1 400))
    (fun (least, growth, i) ->
      let h = Histogram.create ~least ~growth () in
      let bound = formula ~least ~growth i in
      let at = Histogram.bucket_of h bound in
      let table_ok =
        List.for_all
          (fun j -> Histogram.bound_of h j = formula ~least ~growth j)
          (List.init (i + 1) Fun.id)
      in
      let below = Float.pred bound and above = Float.succ bound in
      let inside = (formula ~least ~growth (i - 1) +. bound) /. 2. in
      let agrees x = Histogram.bucket_of h x = log_bucket ~least ~growth x in
      table_ok && at = i
      && Histogram.bucket_of h above = i + 1
      && (below <= formula ~least ~growth (i - 1) || Histogram.bucket_of h below = i)
      && List.for_all agrees [ bound; below; above; inside ])

let histogram_upper_bound_property =
  QCheck.Test.make ~name:"p100 bounds every observation" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (float_bound_exclusive 50.))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let top = Histogram.percentile h 100. in
      List.for_all (fun x -> x <= top +. 1e-9) xs)

(* ------------------------------------------------------ counter set *)

let counter_set_basic () =
  let c = Counter_set.create () in
  checki "absent" 0 (Counter_set.get c "x");
  Counter_set.incr c "x" ();
  Counter_set.incr c "x" ~by:4 ();
  Counter_set.incr c "y" ~by:2 ();
  checki "x" 5 (Counter_set.get c "x");
  checkb "sorted list" true (Counter_set.to_list c = [ ("x", 5); ("y", 2) ])

let counter_set_merge () =
  let a = Counter_set.create () and b = Counter_set.create () in
  Counter_set.incr a "x" ~by:3 ();
  Counter_set.incr b "x" ~by:4 ();
  Counter_set.incr b "z" ();
  let m = Counter_set.merge a b in
  checki "x summed" 7 (Counter_set.get m "x");
  checki "z" 1 (Counter_set.get m "z");
  (* merge must not alias its inputs *)
  Counter_set.incr m "x" ();
  checki "a unchanged" 3 (Counter_set.get a "x")

let counter_set_reset () =
  let c = Counter_set.create () in
  Counter_set.incr c "x" ();
  Counter_set.reset c;
  checki "reset" 0 (Counter_set.get c "x")

(* Determinism regression (lint rule R2's origin story): [to_list] must be
   a pure function of the counter contents, independent of the order the
   names were first touched — its output feeds experiment tables. *)
let counter_set_order_independent =
  QCheck.Test.make ~name:"to_list independent of insertion order" ~count:200
    QCheck.(list (pair (oneofl [ "a"; "b"; "c"; "d"; "e" ]) small_nat))
    (fun incrs ->
      let populate incrs =
        let c = Counter_set.create () in
        List.iter (fun (k, by) -> Counter_set.incr c k ~by ()) incrs;
        c
      in
      let forward = populate incrs and backward = populate (List.rev incrs) in
      let l = Counter_set.to_list forward in
      l = Counter_set.to_list backward
      && List.sort (fun (a, _) (b, _) -> String.compare a b) l = l)

(* ------------------------------------------------------------ table *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  m = 0 || scan 0

let table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  checki "rows" 2 (Table.rows t);
  let s = Table.to_string t in
  checkb "has title" true (contains s "### demo");
  checkb "contains cell" true (contains s "333")

let table_arity () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row \"demo\": expected 2 cells, got 1")
    (fun () -> Table.add_row t [ "only" ])

let table_cells () =
  Alcotest.(check string) "int" "42" (Table.cell_i 42);
  Alcotest.(check string) "float int" "3" (Table.cell_f 3.0);
  Alcotest.(check string) "pct" "25.0%" (Table.cell_pct 1 4);
  Alcotest.(check string) "pct zero" "n/a" (Table.cell_pct 1 0)

(* ----------------------------------------------------------- series *)

let series_basic () =
  let s = Series.create () in
  Series.add s ~x:0. ~y:10.;
  Series.add s ~x:1. ~y:20.;
  Series.add s ~x:2. ~y:30.;
  checki "length" 3 (Series.length s);
  checkf "mean" 20. (Series.mean_y s);
  checkf "max" 30. (Series.max_y s);
  checkb "last" true (Series.last s = Some (2., 30.))

let series_resample () =
  let s = Series.create () in
  for i = 0 to 99 do
    Series.add s ~x:(float_of_int i) ~y:(float_of_int i)
  done;
  let r = Series.resample s ~buckets:4 in
  checki "bucket count" 4 (List.length r);
  let ys = List.map snd r in
  checkb "bucket means increase" true (ys = List.sort compare ys)

let series_resample_single_point () =
  let s = Series.create () in
  Series.add s ~x:5. ~y:7.;
  checkb "single" true (Series.resample s ~buckets:3 = [ (5., 7.) ])

let series_sparkline () =
  let s = Series.create () in
  for i = 0 to 79 do
    (* Ramp: low for the first half, peak in the third quarter, back down. *)
    let y =
      if i < 40 then 1. else if i < 60 then float_of_int (i - 39) else 2.
    in
    Series.add s ~x:(float_of_int i) ~y
  done;
  let line = Series.sparkline s ~buckets:20 in
  (* 20 buckets, each one UTF-8 block glyph (3 bytes) or a space. *)
  checkb "nonempty" true (String.length line > 0);
  let glyph_count =
    (* count UTF-8 code points: bytes that are not continuation bytes *)
    let n = ref 0 in
    String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) line;
    !n
  in
  checki "one glyph per bucket" 20 glyph_count;
  checkb "contains a full block at the peak" true
    (let rec mem i =
       i + 3 <= String.length line && (String.sub line i 3 = "█" || mem (i + 1))
     in
     mem 0);
  checkb "empty series" true (Series.sparkline (Series.create ()) ~buckets:5 = "")

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      summary_merge_matches_combined; histogram_percentile_monotone;
      histogram_upper_bound_property; histogram_bucket_bound_consistent;
      histogram_table_matches_formula;
      counter_set_order_independent;
    ]

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "empty" `Quick summary_empty;
          Alcotest.test_case "known values" `Quick summary_known_values;
          Alcotest.test_case "single" `Quick summary_single;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick histogram_empty;
          Alcotest.test_case "percentiles bounded" `Quick
            histogram_percentiles_bounded;
          Alcotest.test_case "zero bucket" `Quick histogram_zero_bucket;
          Alcotest.test_case "merge" `Quick histogram_merge;
          Alcotest.test_case "merge incompatible" `Quick
            histogram_merge_incompatible;
          Alcotest.test_case "invalid args" `Quick histogram_invalid_args;
          Alcotest.test_case "bucket boundaries" `Quick
            histogram_bucket_boundaries;
          Alcotest.test_case "boundary percentile" `Quick
            histogram_boundary_percentile;
        ] );
      ( "counter-set",
        [
          Alcotest.test_case "basic" `Quick counter_set_basic;
          Alcotest.test_case "merge" `Quick counter_set_merge;
          Alcotest.test_case "reset" `Quick counter_set_reset;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick table_render;
          Alcotest.test_case "arity" `Quick table_arity;
          Alcotest.test_case "cells" `Quick table_cells;
        ] );
      ( "series",
        [
          Alcotest.test_case "basic" `Quick series_basic;
          Alcotest.test_case "resample" `Quick series_resample;
          Alcotest.test_case "resample single" `Quick
            series_resample_single_point;
          Alcotest.test_case "sparkline" `Quick series_sparkline;
        ] );
      ("properties", qsuite);
    ]
