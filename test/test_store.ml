(* Tests for the multi-version store: the data-layer rules of paper §4.1
   step 3/4 and the §4.3 phase-4 garbage collection. *)

module Mvstore = Store.Mvstore
module Key = Store.Key

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let vlist = Alcotest.(check (list int))

(* A tiny value type: the store is polymorphic, ints suffice here. [set]
   and [add] are static write functions; [up] and [exact] write through a
   closure. *)
let set value () _ = value
let add d () v = v + d
let put store ~key ~version value = Mvstore.write_exact store ~key ~version ~init:0 ~f:set value ()
let apply f () v = f v
let up store ~key ~version ~init f = Mvstore.write_upward store ~key ~version ~init ~f:apply f ()
let exact store ~key ~version ~init f = Mvstore.write_exact store ~key ~version ~init ~f:apply f ()

(* What a read at [version] sees: the version's label and its value. *)
let seen store ~key ~version =
  (Mvstore.visible_version store ~key ~version, Mvstore.read_visible store ~key ~version)

let read_visible_rules () =
  let s = Mvstore.create () in
  put s ~key:(Key.intern "x") ~version:0 10;
  put s ~key:(Key.intern "x") ~version:2 30;
  (* Max existing version not exceeding the requested one. *)
  checkb "v0" true (seen s ~key:(Key.intern "x") ~version:0 = (0, Some 10));
  checkb "v1 falls back to v0" true (seen s ~key:(Key.intern "x") ~version:1 = (0, Some 10));
  checkb "v2" true (seen s ~key:(Key.intern "x") ~version:2 = (2, Some 30));
  checkb "v9 sees latest" true (seen s ~key:(Key.intern "x") ~version:9 = (2, Some 30));
  checkb "below every version" true (seen s ~key:(Key.intern "x") ~version:(-1) = (-1, None));
  checkb "missing key" true (seen s ~key:(Key.intern "y") ~version:5 = (-1, None))

let read_exact_and_exists () =
  let s = Mvstore.create () in
  put s ~key:(Key.intern "x") ~version:1 11;
  checkb "exact hit" true (Mvstore.read_exact s ~key:(Key.intern "x") ~version:1 = Some 11);
  checkb "exact miss" true (Mvstore.read_exact s ~key:(Key.intern "x") ~version:0 = None);
  checkb "exists" true (Mvstore.exists s ~key:(Key.intern "x") ~version:1);
  checkb "not exists" false (Mvstore.exists s ~key:(Key.intern "x") ~version:2);
  checkb "above false" false (Mvstore.exists_above s ~key:(Key.intern "x") ~version:1);
  checkb "above true" true (Mvstore.exists_above s ~key:(Key.intern "x") ~version:0);
  checkb "above missing key" false (Mvstore.exists_above s ~key:(Key.intern "z") ~version:0)

let write_upward_copy_on_update () =
  let s = Mvstore.create () in
  put s ~key:(Key.intern "x") ~version:0 100;
  (* Writing version 1 copies version 0 first, then updates version 1. *)
  up s ~key:(Key.intern "x") ~version:1 ~init:0 (fun v -> v + 1);
  checki "copied" 1 (Mvstore.copies_created s);
  vlist "not new item: v0 kept beside the copy" [ 1; 0 ]
    (Mvstore.versions_of s ~key:(Key.intern "x"));
  checki "one version updated" 0 (Mvstore.dual_writes s);
  checkb "v0 untouched" true (Mvstore.read_exact s ~key:(Key.intern "x") ~version:0 = Some 100);
  checkb "v1 updated" true (Mvstore.read_exact s ~key:(Key.intern "x") ~version:1 = Some 101)

let write_upward_dual_write () =
  let s = Mvstore.create () in
  put s ~key:(Key.intern "x") ~version:0 0;
  (* A version-2 transaction creates x(2)... *)
  up s ~key:(Key.intern "x") ~version:2 ~init:0 (fun v -> v + 100);
  (* ...then a version-1 straggler must update BOTH versions 1 and 2
     (paper §2.3, the iq-on-D case). *)
  up s ~key:(Key.intern "x") ~version:1 ~init:0 (fun v -> v + 1);
  vlist "dual write" [ 2; 1; 0 ] (Mvstore.versions_of s ~key:(Key.intern "x"));
  checkb "v1 = copy of v0 + 1" true
    (Mvstore.read_exact s ~key:(Key.intern "x") ~version:1 = Some 1);
  checkb "v2 reflects both" true
    (Mvstore.read_exact s ~key:(Key.intern "x") ~version:2 = Some 101);
  checki "dual-write counter" 1 (Mvstore.dual_writes s)

let write_upward_no_higher_copy () =
  let s = Mvstore.create () in
  put s ~key:(Key.intern "e") ~version:0 5;
  (* No version-2 copy exists: a version-1 write touches only version 1
     (the iq-on-E case — "E does not yet have a version 2 copy"). *)
  up s ~key:(Key.intern "e") ~version:1 ~init:0 (fun v -> v + 1);
  checki "single" 0 (Mvstore.dual_writes s);
  vlist "versions" [ 1; 0 ] (Mvstore.versions_of s ~key:(Key.intern "e"))

let write_upward_new_item () =
  let s = Mvstore.create () in
  up s ~key:(Key.intern "n") ~version:3 ~init:7 (fun v -> v * 2);
  vlist "created item" [ 3 ] (Mvstore.versions_of s ~key:(Key.intern "n"));
  checkb "value from init" true (Mvstore.read_exact s ~key:(Key.intern "n") ~version:3 = Some 14);
  checki "copies counter untouched" 0 (Mvstore.copies_created s)

let write_upward_only_higher_exists () =
  (* The item exists only in a higher version (created there): an
     older-version write materializes its own copy from [init] and still
     updates the higher copy — §4.1 step 4 taken literally. *)
  let s = Mvstore.create () in
  put s ~key:(Key.intern "x") ~version:5 50;
  up s ~key:(Key.intern "x") ~version:2 ~init:0 (fun v -> v + 1);
  checki "not a new item: the copy counts" 1 (Mvstore.copies_created s);
  checki "both versions updated" 1 (Mvstore.dual_writes s);
  checkb "v2 from init" true (Mvstore.read_exact s ~key:(Key.intern "x") ~version:2 = Some 1);
  checkb "v5 updated too" true (Mvstore.read_exact s ~key:(Key.intern "x") ~version:5 = Some 51)

let write_exact_leaves_higher_alone () =
  let s = Mvstore.create () in
  put s ~key:(Key.intern "x") ~version:0 0;
  put s ~key:(Key.intern "x") ~version:2 20;
  exact s ~key:(Key.intern "x") ~version:1 ~init:0 (fun v -> v + 1);
  checkb "v1 created from v0 and updated" true
    (Mvstore.read_exact s ~key:(Key.intern "x") ~version:1 = Some 1);
  checkb "v2 untouched (NC rule)" true
    (Mvstore.read_exact s ~key:(Key.intern "x") ~version:2 = Some 20)

let gc_drop_when_new_version_exists () =
  let s = Mvstore.create () in
  put s ~key:(Key.intern "x") ~version:0 0;
  put s ~key:(Key.intern "x") ~version:1 1;
  put s ~key:(Key.intern "x") ~version:2 2;
  Mvstore.gc s ~new_read_version:1;
  vlist "kept 1 and 2" [ 2; 1 ] (Mvstore.versions_of s ~key:(Key.intern "x"));
  checkb "v1 value intact" true (Mvstore.read_exact s ~key:(Key.intern "x") ~version:1 = Some 1)

let gc_relabel_when_missing () =
  let s = Mvstore.create () in
  put s ~key:(Key.intern "b") ~version:0 42;
  (* b was never written in version 1: its latest earlier version gets
     relabelled (paper §4.3 phase 4). *)
  Mvstore.gc s ~new_read_version:1;
  vlist "relabelled" [ 1 ] (Mvstore.versions_of s ~key:(Key.intern "b"));
  checkb "value preserved" true (Mvstore.read_exact s ~key:(Key.intern "b") ~version:1 = Some 42)

let gc_idempotent () =
  let s = Mvstore.create () in
  put s ~key:(Key.intern "x") ~version:0 0;
  put s ~key:(Key.intern "x") ~version:2 2;
  Mvstore.gc s ~new_read_version:1;
  let before = Mvstore.versions_of s ~key:(Key.intern "x") in
  Mvstore.gc s ~new_read_version:1;
  vlist "stable" before (Mvstore.versions_of s ~key:(Key.intern "x"))

let max_versions_tracking () =
  let s = Mvstore.create () in
  put s ~key:(Key.intern "x") ~version:0 0;
  checki "one" 1 (Mvstore.max_versions_ever s);
  put s ~key:(Key.intern "x") ~version:1 1;
  put s ~key:(Key.intern "x") ~version:2 2;
  checki "three" 3 (Mvstore.max_versions_ever s);
  Mvstore.gc s ~new_read_version:2;
  (* The high-water mark persists after GC. *)
  checki "still three" 3 (Mvstore.max_versions_ever s)

let keys_and_fold () =
  let s = Mvstore.create () in
  put s ~key:(Key.intern "b") ~version:0 1;
  put s ~key:(Key.intern "a") ~version:0 2;
  put s ~key:(Key.intern "a") ~version:1 3;
  Alcotest.(check (list string)) "sorted keys" [ "a"; "b" ]
    (List.map Key.name (Mvstore.keys s));
  let total = Mvstore.fold s ~init:0 ~f:(fun acc _ _ v -> acc + v) in
  checki "fold sums all versions" 6 total

(* Property: version lists are always strictly descending and duplicate
   free, under arbitrary write/gc sequences. *)
let versions_sorted_property =
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun k v -> `Write (k, v)) (int_range 0 3) (int_range 0 4);
          map (fun v -> `Gc v) (int_range 0 4);
        ])
  in
  QCheck.Test.make ~name:"versions stay sorted and unique under write/gc"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) op_gen))
    (fun ops ->
      let s = Mvstore.create () in
      List.iter
        (function
          | `Write (k, v) ->
              Mvstore.write_upward s ~key:(Key.intern (string_of_int k)) ~version:v ~init:0
                ~f:add 1 ()
          | `Gc v -> Mvstore.gc s ~new_read_version:v)
        ops;
      List.for_all
        (fun key ->
          let versions = Mvstore.versions_of s ~key in
          let rec strictly_desc = function
            | a :: (b :: _ as rest) -> a > b && strictly_desc rest
            | _ -> true
          in
          strictly_desc versions)
        (Mvstore.keys s))

(* Property: after any write sequence, read_visible returns the maximum
   version <= the requested one. *)
let read_visible_property =
  QCheck.Test.make ~name:"read_visible returns max version <= requested"
    ~count:300
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 0 5))
    (fun writes ->
      let s = Mvstore.create () in
      List.iter
        (fun v ->
          Mvstore.write_upward s ~key:(Key.intern "k") ~version:v ~init:0 ~f:add 1 ())
        writes;
      let versions = Mvstore.versions_of s ~key:(Key.intern "k") in
      List.for_all
        (fun req ->
          let expect = List.find_opt (fun v -> v <= req) versions in
          match (seen s ~key:(Key.intern "k") ~version:req, expect) with
          | (-1, None), None -> true
          | (v, Some _), Some v' -> v = v'
          | _ -> false)
        [ 0; 1; 2; 3; 4; 5; 6 ])

(* Determinism regression: [keys] and [fold] enumerate in sorted key
   order regardless of insertion order — the store backs experiment
   reports and checker scans, so hash-layout order must never escape. *)
let enumeration_order_independent =
  QCheck.Test.make ~name:"keys/fold independent of insertion order" ~count:200
    QCheck.(list (pair (int_range 0 9) (int_range 0 3)))
    (fun writes ->
      let populate writes =
        let s = Mvstore.create () in
        List.iter
          (fun (k, v) ->
            Mvstore.write_upward s ~key:(Key.intern (string_of_int k)) ~version:v ~init:0
              ~f:add 1 ())
          writes;
        s
      in
      let forward = populate writes and backward = populate (List.rev writes) in
      let triples s =
        Mvstore.fold s ~init:[] ~f:(fun acc k v value -> (k, v, value) :: acc)
      in
      Mvstore.keys forward = Mvstore.keys backward
      && List.sort compare (Mvstore.keys forward) = Mvstore.keys forward
      && List.map (fun (k, v, _) -> (k, v)) (triples forward)
         = List.map (fun (k, v, _) -> (k, v)) (triples backward))

(* ------------------------------------------------ eager-sweep oracle *)

(* The lazy store keeps a list of the items GC must visit and relabels a
   single-version item on its first touch, and it finds items by interned
   key id; [Mvstore_oracle] is the store as it was, keyed by name, sweeping
   every item on every [gc]. Every result, counter and the key listing must
   agree after every op, at versions below and above the floor; a write's
   result is its key's version list. Each case draws fresh
   names for its keys and interns them in a random order, so the ids the
   store hashes are new every case and in no relation to name order: an
   output that depended on ids would differ from the oracle's. *)
module type STORE = sig
  type 'v t
  type key

  val read_visible : 'v t -> key:key -> version:int -> 'v option
  val visible_version : 'v t -> key:key -> version:int -> int
  val read_exact : 'v t -> key:key -> version:int -> 'v option
  val exists_above : 'v t -> key:key -> version:int -> bool

  val write_upward :
    'v t -> key:key -> version:int -> init:'v -> f:('a -> 'b -> 'v -> 'v) -> 'a -> 'b -> unit

  val write_exact :
    'v t -> key:key -> version:int -> init:'v -> f:('a -> 'b -> 'v -> 'v) -> 'a -> 'b -> unit

  val gc : 'v t -> new_read_version:int -> unit
  val gc_floor : 'v t -> int
  val versions_of : 'v t -> key:key -> int list
  val keys : 'v t -> key list
  val fold : 'v t -> init:'a -> f:('a -> key -> int -> 'v -> 'a) -> 'a
  val max_versions_ever : 'v t -> int
  val copies_created : 'v t -> int
  val dual_writes : 'v t -> int
  val name : key -> string
end

module Keyed_store = struct
  include Mvstore

  type key = Key.t

  let name = Key.name
end

module Named_oracle = struct
  include Mvstore_oracle

  type key = string

  let name = Fun.id
end

(* Versions are offsets from the floor when the op runs, so both sides of
   it are reached however far GC has moved it. *)
type store_op =
  | Up of int * int
  | Exact of int * int
  | Collect of int  (** [gc] at floor + d: raises the floor iff d > 0 *)
  | Visible of int * int
  | Exact_read of int * int
  | Above of int * int
  | Versions of int
  | Keys
  | Fold

module Apply (S : STORE) = struct
  let opt f = function None -> "none" | Some x -> f x
  let versions s key = String.concat "," (List.map string_of_int (S.versions_of s ~key))

  let mix i () v = (31 * v) + i

  (* Op [i]'s result as text, then the counters; [keys.(k)] is key [k]. A
     read's result is the label it sees and the value. *)
  let op s (keys : S.key array) i o =
    let at d = S.gc_floor s + d in
    let result =
      match o with
      | Up (k, d) ->
          S.write_upward s ~key:keys.(k) ~version:(at d) ~init:(100 * i) ~f:mix i ();
          versions s keys.(k)
      | Exact (k, d) ->
          S.write_exact s ~key:keys.(k) ~version:(at d) ~init:(100 * i) ~f:mix i ();
          versions s keys.(k)
      | Collect d ->
          S.gc s ~new_read_version:(at d);
          "gc"
      | Visible (k, d) ->
          Printf.sprintf "%d:%s"
            (S.visible_version s ~key:keys.(k) ~version:(at d))
            (opt string_of_int (S.read_visible s ~key:keys.(k) ~version:(at d)))
      | Exact_read (k, d) -> opt string_of_int (S.read_exact s ~key:keys.(k) ~version:(at d))
      | Above (k, d) -> string_of_bool (S.exists_above s ~key:keys.(k) ~version:(at d))
      | Versions k -> versions s keys.(k)
      | Keys -> "keys"
      | Fold ->
          S.fold s ~init:[] ~f:(fun acc k v x -> Printf.sprintf "%s/%d/%d" (S.name k) v x :: acc)
          |> String.concat " "
    in
    Printf.sprintf "%s | floor=%d max=%d copies=%d duals=%d keys=%s" result (S.gc_floor s)
      (S.max_versions_ever s) (S.copies_created s) (S.dual_writes s)
      (String.concat "," (List.map S.name (S.keys s)))
end

module Lazy_store = Apply (Keyed_store)
module Eager_store = Apply (Named_oracle)

let gen_store_op =
  QCheck.Gen.(
    let k = int_bound 3 and d = int_range (-3) 3 in
    frequency
      [
        (4, map2 (fun k d -> Up (k, d)) k d);
        (2, map2 (fun k d -> Exact (k, d)) k d);
        (3, map (fun d -> Collect d) (int_range (-2) 2));
        (2, map2 (fun k d -> Visible (k, d)) k d);
        (1, map2 (fun k d -> Exact_read (k, d)) k d);
        (1, map2 (fun k d -> Above (k, d)) k d);
        (1, map (fun k -> Versions k) k);
        (1, return Keys);
        (1, return Fold);
      ])

(* Fresh names for a case's four keys: a random letter each, so name
   order is random too, then the case number, which no earlier case
   used. *)
let fresh_case = ref 0

let fresh_names letters =
  incr fresh_case;
  Array.of_list (List.mapi (fun i c -> Printf.sprintf "%c%d.%d" c !fresh_case i) letters)

(* Cases of the property below whose store reached four or more versions
   on some key, and so its overflow. *)
let overflow_cases = ref 0

let gc_list_matches_sweep =
  QCheck.Test.make ~name:"lazy gc == eager sweep" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_repeat 4 (char_range 'a' 'z'))
           (shuffle_l [ 0; 1; 2; 3 ])
           (list_size (int_range 1 60) gen_store_op)))
    (fun (letters, order, ops) ->
      let names = fresh_names letters in
      let keys = Array.make 4 (Key.intern names.(List.hd order)) in
      List.iter (fun k -> keys.(k) <- Key.intern names.(k)) order;
      let lazy_s = Mvstore.create () and eager = Mvstore_oracle.create () in
      List.iteri
        (fun i o ->
          let a = Lazy_store.op lazy_s keys i o and b = Eager_store.op eager names i o in
          if a <> b then QCheck.Test.fail_reportf "op %d: lazy %S, eager %S" i a b)
        ops;
      if Mvstore.max_versions_ever lazy_s >= 4 then incr overflow_cases;
      true)

(* The property, failing also when fewer than 50 of its cases reach the
   overflow: a generator that stopped reaching it would otherwise pass
   without comparing it. *)
let gc_list_matches_sweep_case =
  let name, speed, run = QCheck_alcotest.to_alcotest gc_list_matches_sweep in
  ( name,
    speed,
    fun () ->
      overflow_cases := 0;
      run ();
      if !overflow_cases < 50 then
        Alcotest.failf "only %d of the cases reached four versions" !overflow_cases )

(* One key taken to five versions, with writes below and above the
   floor, read at every version, written across the slots and the
   overflow, then collected to each floor in turn, with the oracle's
   results after every step. *)
let overflow_matches_oracle () =
  let names = fresh_names [ 'o'; 'p' ] in
  let keys = Array.map Key.intern names in
  let s = Mvstore.create () and o = Mvstore_oracle.create () in
  let reads =
    List.concat_map (fun d -> [ Visible (0, d); Exact_read (0, d) ]) [ -3; -2; -1; 0; 1; 2; 3 ]
  in
  let ops =
    [ Up (0, 0); Up (1, 0); Collect 2; Up (0, -2); Up (0, 1); Up (0, 2); Up (0, -1) ]
    @ reads
    @ [ Up (0, -2); Exact (0, -1); Exact (0, 1); Up (0, -1); Versions 0; Fold ]
    @ reads
    @ List.concat_map
        (fun d -> (Collect d :: reads) @ [ Versions 0; Versions 1; Above (0, 1); Fold ])
        [ -2; -1; 0; 1; 1; 1 ]
  in
  List.iteri
    (fun i op ->
      Alcotest.(check string)
        (Printf.sprintf "op %d" i) (Eager_store.op o names i op) (Lazy_store.op s keys i op))
    ops;
  checki "five versions reached" 5 (Mvstore.max_versions_ever s);
  vlist "one version left" [ 5 ] (Mvstore.versions_of s ~key:keys.(0))

(* One GC over 100k single-version items and 8 multi-version ones visits
   the 8: the sweep it replaces allocated a fresh version cell for every
   item it relabelled. *)
let gc_visits_only_multi_version_items () =
  let build () =
    let s = Mvstore.create () and o = Mvstore_oracle.create () in
    for i = 0 to 99_999 do
      let key = string_of_int i in
      put s ~key:(Key.intern key) ~version:0 i;
      Mvstore_oracle.write_exact o ~key ~version:0 ~init:0 ~f:set i ()
    done;
    for i = 0 to 7 do
      let key = string_of_int (i * 1000) in
      put s ~key:(Key.intern key) ~version:1 i;
      Mvstore_oracle.write_exact o ~key ~version:1 ~init:0 ~f:set i ()
    done;
    (s, o)
  in
  let s, o = build () in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let lazy_words = words (fun () -> Mvstore.gc s ~new_read_version:1) in
  let sweep_words = words (fun () -> Mvstore_oracle.gc o ~new_read_version:1) in
  checkb (Printf.sprintf "gc allocated %.0f minor words" lazy_words) true (lazy_words < 1000.);
  checkb
    (Printf.sprintf "the sweep allocated %.0f (>= 6 per item)" sweep_words)
    true
    (sweep_words >= 6. *. 100_000.);
  vlist "untouched item relabelled on first touch" [ 1 ]
    (Mvstore.versions_of s ~key:(Key.intern "99999"));
  vlist "multi-version item trimmed" [ 1 ] (Mvstore.versions_of s ~key:(Key.intern "7000"));
  checkb "same contents" true
    (Mvstore.fold s ~init:[] ~f:(fun acc k v x -> (Key.name k, v, x) :: acc)
    = Mvstore_oracle.fold o ~init:[] ~f:(fun acc k v x -> (k, v, x) :: acc))

(* A write assigns in place: with a static [f] that returns an
   immediate, a write at any version an item holds allocates nothing,
   whether the item holds one, two or three versions and whether the
   write updates one of them or all. A write that rebuilt a version list
   would allocate at least a cell and a pair per version it updates. *)
let write_upward_shares_older_versions () =
  let s = Mvstore.create () in
  let held = [ ("one", [ 3 ]); ("two", [ 3; 2 ]); ("three", [ 3; 2; 1 ]) ] in
  List.iter
    (fun (name, versions) ->
      List.iter (fun version -> put s ~key:(Key.intern name) ~version version) (List.rev versions);
      vlist name versions (Mvstore.versions_of s ~key:(Key.intern name)))
    held;
  let n = 1_000 in
  List.iter
    (fun (name, versions) ->
      let key = Key.intern name in
      List.iter
        (fun version ->
          let before = Gc.minor_words () in
          for _ = 1 to n do
            Mvstore.write_upward s ~key ~version ~init:0 ~f:add 1 ()
          done;
          let words = (Gc.minor_words () -. before) /. float_of_int n in
          if words > 0.01 then
            Alcotest.failf "a write at version %d of %s allocates %.2f minor words" version name
              words)
        versions)
    held;
  (* Each version took one increment per write at it or below it. *)
  checkb "every version updated in place" true
    (List.map (fun v -> Mvstore.read_exact s ~key:(Key.intern "three") ~version:v) [ 3; 2; 1 ]
    = [ Some (3 + (3 * n)); Some (2 + (2 * n)); Some (1 + n) ])

(* Phase-4 GC relabels and clears slots in place: trimming 1,000 items
   of two versions and 1,000 of three to one version each allocates
   nothing per item. *)
let gc_trims_in_place () =
  let s = Mvstore.create () in
  let items = 1_000 in
  let name i versions = Printf.sprintf "trim-%d-%d" versions i in
  for i = 1 to items do
    List.iter (fun version -> put s ~key:(Key.intern (name i 2)) ~version version) [ 1; 2 ];
    List.iter (fun version -> put s ~key:(Key.intern (name i 3)) ~version version) [ 1; 2; 3 ]
  done;
  let before = Gc.minor_words () in
  Mvstore.gc s ~new_read_version:3;
  let words = (Gc.minor_words () -. before) /. float_of_int (2 * items) in
  if words >= 1. then Alcotest.failf "gc allocates %.2f minor words per item" words;
  vlist "two versions trimmed" [ 3 ] (Mvstore.versions_of s ~key:(Key.intern (name 7 2)));
  vlist "three versions trimmed" [ 3 ] (Mvstore.versions_of s ~key:(Key.intern (name 7 3)));
  checkb "values kept" true
    (Mvstore.read_exact s ~key:(Key.intern (name 7 2)) ~version:3 = Some 2
    && Mvstore.read_exact s ~key:(Key.intern (name 7 3)) ~version:3 = Some 3)

(* A lookup probes the store's own table by key id and boxes nothing on
   the way: [exists] and [visible_version] on a key the store holds
   allocate nothing, and [read_visible] only its result's [Some] (2
   words). A lookup that went through an option-returning table find
   would allocate 2 words more in each. *)
let lookup_cost () =
  let s = Mvstore.create () in
  let keys = Array.init 64 (fun i -> Key.intern ("cost-" ^ string_of_int i)) in
  Array.iter (fun key -> put s ~key ~version:1 7) keys;
  let n = 10_000 in
  let words lookup =
    let before = Gc.minor_words () in
    for i = 1 to n do
      lookup keys.(i land 63)
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let exists =
    words (fun key -> ignore (Sys.opaque_identity (Mvstore.exists s ~key ~version:1)))
  and visible =
    words (fun key -> ignore (Sys.opaque_identity (Mvstore.read_visible s ~key ~version:2)))
  and version =
    words (fun key -> ignore (Sys.opaque_identity (Mvstore.visible_version s ~key ~version:2)))
  in
  checkb "found" true (seen s ~key:keys.(5) ~version:2 = (1, Some 7));
  if exists > 0.01 then
    Alcotest.failf "exists on a held key allocates %.2f minor words" exists;
  if version > 0.01 then
    Alcotest.failf "visible_version on a held key allocates %.2f minor words" version;
  if visible > 2.01 then
    Alcotest.failf "read_visible on a held key allocates %.2f minor words" visible

(* ------------------------------------------------------------ keys *)

let intern_is_physical () =
  let a = Key.intern "intern-me" in
  let b = Key.intern (String.concat "-" [ "intern"; "me" ]) in
  checkb "same key, physically" true (a == b);
  Alcotest.(check string) "name" "intern-me" (Key.name a);
  let c = Key.intern "intern-me-too" in
  checkb "a new name gets the next id" true (Key.id c > Key.id a)

(* Polymorphic [compare] and [=] on keys, and [Key.compare] and
   [Key.equal], agree with [String.compare] and [String.equal] on the
   names, whatever order the names were interned in. *)
let key_order_is_name_order =
  let sign x = Int.compare x 0 in
  QCheck.Test.make ~name:"key compare and = agree with their names" ~count:500
    QCheck.(pair (string_of_size (Gen.int_range 0 3)) (string_of_size (Gen.int_range 0 3)))
    (fun (x, y) ->
      let a = Key.intern x and b = Key.intern y in
      sign (compare a b) = sign (String.compare x y)
      && sign (Key.compare a b) = sign (String.compare x y)
      && a = b = String.equal x y
      && Key.equal a b = String.equal x y)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      versions_sorted_property; read_visible_property;
      enumeration_order_independent;
    ]
  @ [ gc_list_matches_sweep_case ]

let () =
  Alcotest.run "store"
    [
      ( "reads",
        [
          Alcotest.test_case "read_visible rules" `Quick read_visible_rules;
          Alcotest.test_case "read_exact / exists" `Quick read_exact_and_exists;
          Alcotest.test_case "lookup cost" `Quick lookup_cost;
        ] );
      ( "writes",
        [
          Alcotest.test_case "copy on update" `Quick write_upward_copy_on_update;
          Alcotest.test_case "dual write" `Quick write_upward_dual_write;
          Alcotest.test_case "no higher copy" `Quick write_upward_no_higher_copy;
          Alcotest.test_case "only higher exists" `Quick
            write_upward_only_higher_exists;
          Alcotest.test_case "new item" `Quick write_upward_new_item;
          Alcotest.test_case "write_exact NC rule" `Quick
            write_exact_leaves_higher_alone;
          Alcotest.test_case "newest write shares older versions" `Quick
            write_upward_shares_older_versions;
        ] );
      ( "gc",
        [
          Alcotest.test_case "drop" `Quick gc_drop_when_new_version_exists;
          Alcotest.test_case "relabel" `Quick gc_relabel_when_missing;
          Alcotest.test_case "idempotent" `Quick gc_idempotent;
          Alcotest.test_case "trims in place" `Quick gc_trims_in_place;
          Alcotest.test_case "overflow matches the oracle" `Quick overflow_matches_oracle;
          Alcotest.test_case "visits only multi-version items" `Quick
            gc_visits_only_multi_version_items;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "max versions" `Quick max_versions_tracking;
          Alcotest.test_case "keys and fold" `Quick keys_and_fold;
        ] );
      ( "key",
        [
          Alcotest.test_case "intern is physical" `Quick intern_is_physical;
          QCheck_alcotest.to_alcotest key_order_is_name_order;
        ] );
      ("properties", qsuite);
    ]
