(* Regression tests for `threev_sim run`'s command line: the fault-flag
   grammar in Harness.Scenario (one accept + one reject case per flag, and
   a print/parse round trip), the argv pre-scan in bin/cli_specs that turns
   a malformed spec into a one-line usage message and exit 2 (both
   --flag V and --flag=V forms), and Scenario.validate's rejection of
   flags naming nodes outside the cluster. *)

module C = Cli_specs
module S = Harness.Scenario

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let expect_usage what usage = function
  | Ok _ -> Alcotest.failf "%s: malformed spec accepted" what
  | Error msg ->
      checkb
        (Printf.sprintf "%s error embeds usage" what)
        true
        (String.length msg >= String.length usage
        &&
        let rec find i =
          i + String.length usage <= String.length msg
          && (String.sub msg i (String.length usage) = usage || find (i + 1))
        in
        find 0)

let partition_usage =
  "usage: --partition SRC:DST:FROM:UNTIL | SET@FROM:UNTIL[:oneway]"

let crash_usage = "usage: --crash NODE@TIME:RESTART"
let coord_crash_usage = "usage: --coord-crash TIME:RESTART"
let data_crash_usage = "usage: --data-crash GROUP@TIME:RESTART"
let hb_loss_usage = "usage: --hb-loss NODE@FROM:UNTIL[:PROB]"

(* ------------------------------------------------------ partition *)

let partition_grammar () =
  let p = S.parse_atom "--partition" in
  (match p "0:1:0.2:0.5" with
  | Ok (S.Partition (0, 1, 0.2, 0.5)) -> ()
  | _ -> Alcotest.fail "legacy link form");
  (match p "0,1,2@0.1:0.4" with
  | Ok (S.Partition_set ([ 0; 1; 2 ], 0.1, 0.4, false)) -> ()
  | _ -> Alcotest.fail "set form");
  (match p "3@0.1:0.4:oneway" with
  | Ok (S.Partition_set ([ 3 ], 0.1, 0.4, true)) -> ()
  | _ -> Alcotest.fail "oneway form");
  expect_usage "partition" partition_usage (p "bad@x");
  expect_usage "partition" partition_usage (p "1:2:3");
  expect_usage "partition" partition_usage (p "0@0.1:0.4:sideways")

(* ---------------------------------------------------------- crash *)

let crash_grammar () =
  (match S.parse_atom "--crash" "2@0.25:0.7" with
  | Ok (S.Crash (2, 0.25, 0.7)) -> ()
  | _ -> Alcotest.fail "crash form");
  expect_usage "crash" crash_usage (S.parse_atom "--crash" "oops");
  expect_usage "crash" crash_usage (S.parse_atom "--crash" "2@0.25")

let coord_crash_grammar () =
  (match S.parse_atom "--coord-crash" "0.3:0.8" with
  | Ok (S.Coord_crash (0.3, 0.8)) -> ()
  | _ -> Alcotest.fail "coord-crash form");
  expect_usage "coord-crash" coord_crash_usage
    (S.parse_atom "--coord-crash" "nah");
  expect_usage "coord-crash" coord_crash_usage
    (S.parse_atom "--coord-crash" "0.3")

let data_crash_grammar () =
  (match S.parse_atom "--data-crash" "1@0.25:0.7" with
  | Ok (S.Data_crash (1, 0.25, 0.7)) -> ()
  | _ -> Alcotest.fail "data-crash form");
  expect_usage "data-crash" data_crash_usage
    (S.parse_atom "--data-crash" "bogus");
  expect_usage "data-crash" data_crash_usage
    (S.parse_atom "--data-crash" "1@0.25")

let hb_loss_grammar () =
  (match S.parse_atom "--hb-loss" "3@0.1:0.6" with
  | Ok (S.Hb_loss (3, 0.1, 0.6, 1.)) -> ()
  | _ -> Alcotest.fail "hb-loss default prob");
  (match S.parse_atom "--hb-loss" "3@0.1:0.6:0.5" with
  | Ok (S.Hb_loss (3, 0.1, 0.6, 0.5)) -> ()
  | _ -> Alcotest.fail "hb-loss explicit prob");
  expect_usage "hb-loss" hb_loss_usage (S.parse_atom "--hb-loss" "nope");
  expect_usage "hb-loss" hb_loss_usage (S.parse_atom "--hb-loss" "3@0.1")

(* Every fault-flag atom reads back from its own rendering: parse ∘ print
   is the identity. Times and probabilities are millisecond-grained, as
   fuzz draws them, so %g renders them exactly. *)
let atom_round_trip =
  let open QCheck.Gen in
  let node = int_range (-2) 40 in
  let time = map (fun k -> float_of_int k /. 1000.) (int_range 0 9999) in
  let prob = map (fun k -> float_of_int k /. 1000.) (int_range 1 1000) in
  let atom =
    oneof
      [
        map
          (fun (s, d, f, u) -> S.Partition (s, d, f, u))
          (quad node node time time);
        map
          (fun (set, (f, u), oneway) -> S.Partition_set (set, f, u, oneway))
          (triple (list_size (int_range 1 4) node) (pair time time) bool);
        map (fun (n, a, r) -> S.Crash (n, a, r)) (triple node time time);
        map (fun (a, r) -> S.Coord_crash (a, r)) (pair time time);
        map (fun (g, a, r) -> S.Data_crash (g, a, r)) (triple node time time);
        map
          (fun (n, f, u, p) -> S.Hb_loss (n, f, u, p))
          (quad node time time prob);
      ]
  in
  let print a =
    let flag, value = S.atom_arg a in
    flag ^ " " ^ value
  in
  QCheck.Test.make ~name:"parse (print atom) = atom" ~count:500
    (QCheck.make ~print atom)
    (fun a ->
      let flag, value = S.atom_arg a in
      S.parse_atom flag value = Ok a)

(* ------------------------------------------------------- prescan *)

let prevalidate_catches_first () =
  let argv =
    [| "threev_sim"; "run"; "--crash"; "2@0.25:0.7"; "--partition"; "bad@x" |]
  in
  (match C.prevalidate argv with
  | Some msg -> expect_usage "prescan" partition_usage (Error msg)
  | None -> Alcotest.fail "malformed --partition not caught");
  match C.prevalidate [| "threev_sim"; "run"; "--hb-loss=zap" |] with
  | Some msg -> expect_usage "prescan=" hb_loss_usage (Error msg)
  | None -> Alcotest.fail "malformed --hb-loss=V not caught"

let prevalidate_clean () =
  checkb "all well-formed" true
    (C.prevalidate
       [|
         "threev_sim";
         "run";
         "--crash";
         "2@0.25:0.7";
         "--partition=0,1@0.1:0.4:oneway";
         "--data-crash";
         "1@0.3:0.9";
         "--coord-crash";
         "0.3:0.8";
         "--hb-loss";
         "3@0.1:0.6:0.5";
       |]
    = None);
  (* Unknown flags and non-spec values are cmdliner's business. *)
  checkb "unrelated argv ignored" true
    (C.prevalidate [| "threev_sim"; "run"; "--nodes"; "bananas" |] = None)

let error_is_one_line () =
  match S.parse_atom "--data-crash" "bogus" with
  | Ok _ -> Alcotest.fail "accepted"
  | Error msg ->
      checkb "single line" false (String.contains msg '\n');
      checks "exact message"
        "bad data-crash spec \"bogus\"; usage: --data-crash GROUP@TIME:RESTART"
        msg

(* ------------------------------------------------------ validate *)

let rejects args needle () =
  match S.validate (Run_args.parse args) with
  | Ok () -> Alcotest.failf "run %s accepted" (String.concat " " args)
  | Error msg ->
      checkb "one line" false (String.contains msg '\n');
      expect_usage (String.concat " " args) needle (Error msg)

let accepts_defaults () =
  checkb "defaults valid" true (S.validate (Run_args.parse []) = Ok ());
  checkb "defaults are Scenario.default" true (Run_args.parse [] = S.default)

(* 2PC reads no advancement period, so it runs whatever the flag says. *)
let unread_period_accepted () =
  let args = [ "--engine"; "2pc"; "--advancement-period"; "0" ] in
  checkb "2pc, zero period" true (S.validate (Run_args.parse args) = Ok ())

let () =
  Alcotest.run "cli_specs"
    [
      ( "grammar",
        [
          Alcotest.test_case "partition" `Quick partition_grammar;
          Alcotest.test_case "crash" `Quick crash_grammar;
          Alcotest.test_case "coord-crash" `Quick coord_crash_grammar;
          Alcotest.test_case "data-crash" `Quick data_crash_grammar;
          Alcotest.test_case "hb-loss" `Quick hb_loss_grammar;
          QCheck_alcotest.to_alcotest atom_round_trip;
        ] );
      ( "prescan",
        [
          Alcotest.test_case "catches malformed" `Quick
            prevalidate_catches_first;
          Alcotest.test_case "clean argv passes" `Quick prevalidate_clean;
          Alcotest.test_case "one-line message" `Quick error_is_one_line;
        ] );
      ( "validate",
        [
          Alcotest.test_case "defaults accepted" `Quick accepts_defaults;
          Alcotest.test_case "4 nodes, 3 replicas" `Quick
            (rejects
               [ "--nodes"; "4"; "--replicas"; "3" ]
               "--replicas must divide");
          Alcotest.test_case "6 nodes, 4 replicas" `Quick
            (rejects
               [ "--nodes"; "6"; "--replicas"; "4" ]
               "--replicas must divide");
          Alcotest.test_case "crash of node 99" `Quick
            (rejects [ "--nodes"; "4"; "--crash"; "99@0.1:0.3" ]
               "--crash: node 99 outside 0..3");
          Alcotest.test_case "crash of node -1" `Quick
            (rejects [ "--crash=-1@0.1:0.3" ] "--crash: node -1 outside 0..3");
          Alcotest.test_case "partition past the coordinator" `Quick
            (rejects [ "--partition"; "7:9:0.1:0.5" ]
               "--partition: node 7 outside 0..4");
          Alcotest.test_case "zero rate" `Quick
            (rejects [ "--rate"; "0" ] "--rate must be positive");
          Alcotest.test_case "zero advancement period" `Quick
            (rejects
               [ "--engine"; "manual"; "--advancement-period"; "0" ]
               "--advancement-period must be positive");
          Alcotest.test_case "2pc ignores the period" `Quick
            unread_period_accepted;
          Alcotest.test_case "zero heartbeat timeout" `Quick
            (rejects [ "--hb-timeout"; "0" ]
               "--hb-timeout must exceed --hb-period");
          Alcotest.test_case "hb-loss of node 42" `Quick
            (rejects
               [ "--hb-period"; "0.02"; "--hb-loss"; "42@0.1:0.5" ]
               "--hb-loss: node 42 outside 0..3");
        ] );
    ]
