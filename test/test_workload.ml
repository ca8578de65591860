(* Tests for workload generators: spec validity and distribution sanity. *)

module Spec = Txn.Spec
module Op = Txn.Op
module Key = Store.Key
module Generator = Workload.Generator
module Zipf = Workload.Zipf

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let rng () = Random.State.make [| 123 |]

(* -------------------------------------------------------------- zipf *)

let zipf_bounds () =
  let z = Zipf.create ~n:10 ~s:1.2 in
  let r = rng () in
  checki "support" 10 (Zipf.support z);
  for _ = 1 to 1000 do
    let x = Zipf.sample z r in
    if x < 0 || x >= 10 then Alcotest.fail "out of range"
  done

let zipf_uniform_when_s_zero () =
  let z = Zipf.create ~n:4 ~s:0. in
  let r = rng () in
  let counts = Array.make 4 0 in
  for _ = 1 to 40_000 do
    let x = Zipf.sample z r in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      checkb "roughly uniform" true (c > 9_000 && c < 11_000))
    counts

let zipf_skew () =
  let z = Zipf.create ~n:100 ~s:1.5 in
  let r = rng () in
  let first = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Zipf.sample z r = 0 then incr first
  done;
  (* With s=1.5 over 100 items, item 0 has ~38% of the mass. *)
  checkb "head heavy" true (!first > n / 4)

let zipf_invalid () =
  Alcotest.check_raises "n" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~s:1.));
  Alcotest.check_raises "s" (Invalid_argument "Zipf.create: s must be nonnegative")
    (fun () -> ignore (Zipf.create ~n:1 ~s:(-1.)))

(* --------------------------------------------------------- generator *)

let pick_distinct_properties =
  QCheck.Test.make ~name:"pick_distinct yields distinct in-range values"
    ~count:300
    QCheck.(pair (int_range 1 10) (int_range 1 10))
    (fun (n, among) ->
      let r = Random.State.make [| n; among |] in
      let picked = Generator.pick_distinct r ~n ~among in
      List.length picked = min n among
      && List.sort_uniq compare picked = List.sort compare picked
      && List.for_all (fun x -> x >= 0 && x < among) picked)

let fanout_tree_structure () =
  let tree =
    Generator.fanout_tree ~ops_of:(fun n -> [ Op.Read (Key.intern (string_of_int n)) ]) [ 3; 1; 4 ]
  in
  checki "root node" 3 tree.Spec.node;
  checki "children" 2 (List.length tree.Spec.children);
  Alcotest.check_raises "empty" (Invalid_argument "Generator.fanout_tree: empty node list")
    (fun () -> ignore (Generator.fanout_tree ~ops_of:(fun _ -> []) []))

(* Validity: every generated spec only touches nodes within range and is
   classified as expected. *)
let spec_valid ~nodes (spec : Spec.t) =
  List.for_all (fun n -> n >= 0 && n < nodes) (Spec.nodes spec)
  && Spec.size spec >= 1

let generator_validity name gen ~nodes =
  let r = rng () in
  for i = 1 to 500 do
    let spec = gen.Generator.make r ~id:i in
    if not (spec_valid ~nodes spec) then
      Alcotest.failf "%s produced an invalid spec %d" name i
  done

let hospital_specs () =
  let nodes = 4 in
  let gen =
    Workload.Hospital.generator
      { (Workload.Hospital.default ~nodes) with Workload.Hospital.front_end = true }
  in
  generator_validity "hospital" gen ~nodes;
  (* Kinds: reads and commuting updates only. *)
  let r = rng () in
  for i = 1 to 200 do
    let spec = gen.Generator.make r ~id:i in
    if spec.Spec.kind = Spec.Non_commuting then
      Alcotest.fail "hospital must not produce non-commuting txns"
  done

let hospital_visit_shape () =
  let nodes = 4 in
  let gen =
    Workload.Hospital.generator
      {
        (Workload.Hospital.default ~nodes) with
        Workload.Hospital.read_ratio = 0. (* only visits *);
        visit_fanout = 3;
      }
  in
  let r = rng () in
  for i = 1 to 100 do
    let spec = gen.Generator.make r ~id:i in
    checki "visit touches 3 departments" 3 (List.length (Spec.nodes spec));
    checkb "is update" true (spec.Spec.kind = Spec.Commuting)
  done

let call_recording_specs () =
  let nodes = 3 in
  let gen = Workload.Call_recording.generator (Workload.Call_recording.default ~nodes) in
  generator_validity "call-recording" gen ~nodes

let pos_nc_ratio () =
  let nodes = 4 in
  let gen =
    Workload.Point_of_sale.generator
      {
        (Workload.Point_of_sale.default ~nodes) with
        Workload.Point_of_sale.nc_ratio = 0.5;
        read_ratio = 0.;
      }
  in
  generator_validity "pos" gen ~nodes;
  let r = rng () in
  let nc = ref 0 and total = 500 in
  for i = 1 to total do
    let spec = gen.Generator.make r ~id:i in
    if spec.Spec.kind = Spec.Non_commuting then incr nc
  done;
  checkb "roughly half non-commuting" true (!nc > 150 && !nc < 350)

let pos_no_nc_when_zero () =
  let gen =
    Workload.Point_of_sale.generator
      { (Workload.Point_of_sale.default ~nodes:3) with Workload.Point_of_sale.nc_ratio = 0. }
  in
  let r = rng () in
  for i = 1 to 300 do
    let spec = gen.Generator.make r ~id:i in
    if spec.Spec.kind = Spec.Non_commuting then
      Alcotest.fail "nc_ratio 0 must not produce NC transactions"
  done

let synthetic_read_ratio () =
  let gen =
    Workload.Synthetic.generator
      { (Workload.Synthetic.default ~nodes:4) with Workload.Synthetic.read_ratio = 0.5 }
  in
  let r = rng () in
  let reads = ref 0 and total = 1000 in
  for i = 1 to total do
    let spec = gen.Generator.make r ~id:i in
    if spec.Spec.kind = Spec.Read_only then incr reads
  done;
  checkb "about half reads" true (!reads > 400 && !reads < 600)

let synthetic_fanout () =
  let gen =
    Workload.Synthetic.generator
      {
        (Workload.Synthetic.default ~nodes:8) with
        Workload.Synthetic.fanout = 3;
        read_ratio = 0.;
      }
  in
  let r = rng () in
  for i = 1 to 100 do
    let spec = gen.Generator.make r ~id:i in
    checki "fanout respected" 3 (List.length (Spec.nodes spec))
  done

let factory_specs () =
  let nodes = 3 in
  let gen =
    Workload.Factory.generator
      {
        (Workload.Factory.default ~nodes) with
        Workload.Factory.reset_ratio = 0.2;
      }
  in
  generator_validity "factory" gen ~nodes;
  let r = rng () in
  let seen_reset = ref false and seen_report = ref false in
  for i = 1 to 300 do
    let spec = gen.Generator.make r ~id:i in
    if spec.Spec.kind = Spec.Non_commuting then seen_reset := true;
    if spec.Spec.kind = Spec.Read_only then begin
      seen_report := true;
      (* Shift reports fan out to every line. *)
      checki "report covers all lines" nodes (List.length (Spec.nodes spec))
    end
  done;
  checkb "resets generated" true !seen_reset;
  checkb "reports generated" true !seen_report

let qsuite = List.map QCheck_alcotest.to_alcotest [ pick_distinct_properties ]

let () =
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "bounds" `Quick zipf_bounds;
          Alcotest.test_case "uniform when s=0" `Quick zipf_uniform_when_s_zero;
          Alcotest.test_case "skew" `Quick zipf_skew;
          Alcotest.test_case "invalid args" `Quick zipf_invalid;
        ] );
      ( "generator",
        [
          Alcotest.test_case "fanout tree" `Quick fanout_tree_structure;
        ]
        @ qsuite );
      ( "domains",
        [
          Alcotest.test_case "hospital validity" `Quick hospital_specs;
          Alcotest.test_case "hospital visit shape" `Quick hospital_visit_shape;
          Alcotest.test_case "call recording validity" `Quick
            call_recording_specs;
          Alcotest.test_case "pos nc ratio" `Quick pos_nc_ratio;
          Alcotest.test_case "pos nc zero" `Quick pos_no_nc_when_zero;
          Alcotest.test_case "synthetic read ratio" `Quick synthetic_read_ratio;
          Alcotest.test_case "synthetic fanout" `Quick synthetic_fanout;
          Alcotest.test_case "factory validity" `Quick factory_specs;
        ] );
    ]
