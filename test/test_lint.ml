(* Tests for the determinism & protocol-hygiene static analyzer.

   Every rule gets a firing fixture, a passing fixture and a waived
   fixture, compiled from strings through [Lint.Driver.lint_string] — the
   same path the tree-wide gate uses, minus the filesystem walk. *)

module Driver = Lint.Driver
module Config = Lint.Config
module Report = Lint.Report

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let rules_of ?config ~filename source =
  List.map
    (fun (f : Report.finding) -> f.Report.rule)
    (Driver.lint_string ?config ~filename source)

(* [fires rule source] — linting [source] yields exactly the given rules. *)
let check_rules msg ?config ~filename source expect =
  Alcotest.(check (list string)) msg expect (rules_of ?config ~filename source)

(* ---------------------------------------------------------------- R1 *)

let r1_fires () =
  check_rules "global RNG" ~filename:"lib/x/a.ml"
    "let f () = Random.int 10" [ "R1" ];
  check_rules "wall clock" ~filename:"lib/x/a.ml"
    "let now () = Unix.gettimeofday ()" [ "R1" ];
  check_rules "layout hash" ~filename:"lib/x/a.ml"
    "let h x = Hashtbl.hash x" [ "R1" ];
  check_rules "exit" ~filename:"lib/x/a.ml" "let die () = exit 1" [ "R1" ]

let r1_passes () =
  check_rules "seeded state is sanctioned" ~filename:"lib/x/a.ml"
    "let f st = Random.State.int st 10" [];
  check_rules "virtual clock is fine" ~filename:"lib/x/a.ml"
    "let now sim = Sim.now sim" []

let r1_waived () =
  check_rules "inline waiver suppresses" ~filename:"lib/x/a.ml"
    "let f () = Random.int 10 (* lint: nondet-ok fixture *)" [];
  (* The waiver is accounted, not dropped. *)
  let _, waived, _ =
    Driver.lint_source ~filename:"lib/x/a.ml"
      "let f () = Random.int 10 (* lint: nondet-ok fixture *)"
  in
  checki "waived count" 1 waived

let r1_waiver_is_rule_scoped () =
  (* A waiver for another rule does not suppress R1. *)
  check_rules "wrong tag keeps firing" ~filename:"lib/x/a.ml"
    "let f () = Random.int 10 (* lint: hash-order-ok fixture *)" [ "R1" ]

(* ---------------------------------------------------------------- R2 *)

let r2_fires () =
  check_rules "unsorted iter" ~filename:"lib/x/a.ml"
    "let f h = Hashtbl.iter (fun k _ -> print_string k) h" [ "R2" ];
  check_rules "unsorted fold" ~filename:"lib/x/a.ml"
    "let f h = Hashtbl.fold (fun k _ acc -> k :: acc) h []" [ "R2" ]

let r2_passes () =
  check_rules "sort dominates in the same binding" ~filename:"lib/x/a.ml"
    "let f h =\n\
    \  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []\n\
    \  |> List.sort compare"
    []

let r2_to_seq_family () =
  List.iter
    (fun f ->
      check_rules ("unsorted " ^ f) ~filename:"lib/x/a.ml"
        (Printf.sprintf "let f h = List.of_seq (Hashtbl.%s h)" f)
        [ "R2" ];
      check_rules ("sorted " ^ f) ~filename:"lib/x/a.ml"
        (Printf.sprintf
           "let f h = List.sort compare (List.of_seq (Hashtbl.%s h))" f)
        [])
    [ "to_seq"; "to_seq_keys"; "to_seq_values" ]

let r2_sort_elsewhere_does_not_excuse () =
  (* A sort in a *different* top-level binding must not excuse the fold. *)
  check_rules "per-item granularity" ~filename:"lib/x/a.ml"
    "let g l = List.sort compare l\n\
     let f h = Hashtbl.iter (fun k _ -> print_string k) h"
    [ "R2" ]

let r2_waived () =
  check_rules "hash-order-ok waiver" ~filename:"lib/x/a.ml"
    "(* lint: hash-order-ok fixture *)\n\
     let f h = Hashtbl.iter (fun k _ -> print_string k) h"
    []

(* The ISSUE's regression tripwire: re-introducing an unsorted fold in
   counter_set.ml-shaped code must fail the gate. *)
let r2_counter_set_tripwire () =
  check_rules "unsorted to_list fails the lint gate"
    ~filename:"lib/stats/counter_set.ml"
    "let to_list t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []"
    [ "R2" ]

(* ---------------------------------------------------------------- R3 *)

let deny_ivar = Config.parse "deny-type Ivar.t"

let r3_fires () =
  check_rules "compare at denied type" ~config:deny_ivar
    ~filename:"lib/x/a.ml" "let f a b = compare (a : Ivar.t) b" [ "R3" ];
  check_rules "equality at denied type" ~config:deny_ivar
    ~filename:"lib/x/a.ml" "let f a b = (a : Simul.Ivar.t) = b" [ "R3" ]

let r3_passes () =
  check_rules "other annotated type" ~config:deny_ivar ~filename:"lib/x/a.ml"
    "let f a b = compare (a : int) b" [];
  check_rules "no deny list, no finding" ~filename:"lib/x/a.ml"
    "let f a b = compare (a : Ivar.t) b" []

let r3_waived () =
  check_rules "compare-ok waiver" ~config:deny_ivar ~filename:"lib/x/a.ml"
    "let f a b = compare (a : Ivar.t) b (* lint: compare-ok fixture *)" []

(* ---------------------------------------------------------------- R4 *)

let r4_fires () =
  check_rules "unguarded Trace.emit in lib/core" ~filename:"lib/core/a.ml"
    "let f trace = Trace.emit trace \"x\"" [ "R4" ];
  check_rules "unguarded tr in lib/net" ~filename:"lib/net/a.ml"
    "let f t = tr t \"boom\"" [ "R4" ]

(* The emitters are [tr] and [Trace.emit], under any module path; a guard
   on anything but [tracing] does not cover them. [trl] and
   [Trace.emit_deferred] no longer exist, and are ordinary names. *)
let r4_emitters () =
  check_rules "unguarded tr with format arguments" ~filename:"lib/repl/a.ml"
    "let f t n = tr t \"poll %d\" n" [ "R4" ];
  check_rules "unguarded qualified Trace.emit" ~filename:"lib/shard/a.ml"
    "let f trace = Threev.Trace.emit trace ~time:0. ~site:\"s\" \"x\"" [ "R4" ];
  check_rules "tr under another guard" ~filename:"lib/core/a.ml"
    "let f t debug = if debug then tr t \"x\"" [ "R4" ];
  check_rules "deleted emitters are ordinary names" ~filename:"lib/core/a.ml"
    "let f t trace = trl t (fun () -> \"x\"); Trace.emit_deferred trace (fun () -> \"y\")" []

let r4_passes () =
  check_rules "guarded emission" ~filename:"lib/core/a.ml"
    "let f t trace = if tracing t then Trace.emit trace \"x\"" [];
  check_rules "out-of-scope path" ~filename:"lib/harness/a.ml"
    "let f trace = Trace.emit trace \"x\"" []

let r4_waived () =
  check_rules "trace-ok waiver" ~filename:"lib/core/a.ml"
    "let f trace = Trace.emit trace \"x\" (* lint: trace-ok fixture *)" []

(* ---------------------------------------------------------------- R5 *)

let r5_fires () =
  check_rules "undocumented export" ~filename:"lib/x/a.mli"
    "val f : int -> int" [ "R5" ]

let r5_passes () =
  check_rules "documented export" ~filename:"lib/x/a.mli"
    "(** Doubles. *)\nval f : int -> int" []

let r5_waived () =
  check_rules "doc-ok waiver" ~filename:"lib/x/a.mli"
    "val f : int -> int (* lint: doc-ok fixture *)" []

let engine_cfg = Config.parse "engine lib/eng.mli"

let r5_engine_fires () =
  check_rules "engine without Engine_intf include" ~config:engine_cfg
    ~filename:"lib/eng.mli" "(** Engine. *)\ntype t" [ "R5" ]

let r5_engine_passes () =
  check_rules "engine including Engine_intf.S" ~config:engine_cfg
    ~filename:"lib/eng.mli" "(** Engine. *)\ntype t\ninclude Engine_intf.S" []

(* A config line whose path names no file would switch its check off
   without a word: it is a finding of the rule that reads it, through the
   tree walk as through an in-memory run. *)
let r5_stale_engine_line_fires () =
  let eng = "(** Engine. *)\ntype t\ninclude Engine_intf.S" in
  let pairs (r : Report.t) =
    List.map (fun (f : Report.finding) -> (f.Report.file, f.Report.rule)) r.Report.findings
  in
  let root = Filename.temp_dir "lint" "" in
  let path rel = Filename.concat root rel in
  let write rel text =
    Out_channel.with_open_bin (path rel) (fun oc -> Out_channel.output_string oc text)
  in
  Sys.mkdir (path "lib") 0o755;
  write "lib/eng.mli" eng;
  write "lint.config" "engine lib/eng.mli\nengine lib/gone.mli\n";
  let walked =
    Fun.protect
      (fun () -> Driver.run ~root ())
      ~finally:(fun () ->
        List.iter (fun rel -> Sys.remove (path rel)) [ "lib/eng.mli"; "lint.config" ];
        Sys.rmdir (path "lib");
        Sys.rmdir root)
  in
  Alcotest.(check (list (pair string string)))
    "tree walk: attributed to the missing path" [ ("lib/gone.mli", "R5") ] (pairs walked);
  Alcotest.(check (list (pair string string)))
    "in-memory run: attributed to the missing path" [ ("lib/gone.mli", "R5") ]
    (pairs
       (Driver.run_sources ~config:(Config.parse "engine lib/gone.mli") [ ("lib/eng.mli", eng) ]))

(* ---------------------------------------------------------------- R6 *)

let r6_fires () =
  check_rules "crash-window probe in lib/core" ~filename:"lib/core/a.ml"
    "let f t i = Injector.down t ~node:i ~at:0." [ "R6" ];
  check_rules "coordinator probe in lib/repl" ~filename:"lib/repl/a.ml"
    "let f t = Fault.Injector.coord_down t ~at:0." [ "R6" ];
  check_rules "down-node list in lib/shard" ~filename:"lib/shard/a.ml"
    "let f t = Injector.down_nodes t ~at:0." [ "R6" ]

let r6_passes () =
  check_rules "out-of-scope path" ~filename:"lib/harness/a.ml"
    "let f t = Injector.down_nodes t ~at:0." [];
  check_rules "another module's down" ~filename:"lib/core/a.ml"
    "let f d i = Detector.down d i" []

let r6_waived () =
  check_rules "oracle-ok waiver" ~filename:"lib/core/a.ml"
    "let f t = Injector.down_nodes t ~at:0. (* lint: oracle-ok fixture *)" []

(* ---------------------------------------------------------------- R7 *)

(* R7 is the cross-file pass: facts are joined over a whole source set, so
   these fixtures go through [run_sources] with a three-file mini-tree —
   the protocol type's defining file, a sender and a handler. *)

let proto_cfg = Config.parse "protocol lib/core/proto.ml msg"
let proto_ml = "type msg = Ping of int | Pong | Halt"

let run_rules ?config sources =
  let r = Driver.run_sources ?config sources in
  List.map
    (fun (f : Report.finding) -> (f.Report.file, f.Report.rule))
    r.Report.findings

let r7_unhandled_send_fires () =
  (* [Halt] is sent but matched by no pattern in the scanned set. The
     handler lives outside lib/core so leg 2 stays quiet. *)
  let rules =
    run_rules ~config:proto_cfg
      [
        ("lib/core/proto.ml", proto_ml);
        ("lib/net/sender.ml", "let f net = send net Halt");
        ("lib/net/handler.ml",
         "let g m = match m with Ping n -> n | Pong -> 0");
      ]
  in
  Alcotest.(check (list (pair string string)))
    "attributed to the send site"
    [ ("lib/net/sender.ml", "R7") ]
    rules

let r7_handled_send_passes () =
  checki "handler branch anywhere suffices" 0
    (List.length
       (run_rules ~config:proto_cfg
          [
            ("lib/core/proto.ml", proto_ml);
            ("lib/net/sender.ml", "let f net = send net Halt");
            ("lib/net/handler.ml",
             "let g m = match m with Ping n -> n | Pong -> 0 | Halt -> 1");
          ]))

let r7_let_bound_send_resolves () =
  (* [let m = Halt in ... send ... m] resolves through the binding. *)
  Alcotest.(check (list (pair string string)))
    "bound message still counts as sent"
    [ ("lib/net/sender.ml", "R7") ]
    (run_rules ~config:proto_cfg
       [
         ("lib/core/proto.ml", proto_ml);
         ("lib/net/sender.ml", "let f net = let m = Halt in send net m");
       ])

let r7_no_protocol_config_is_silent () =
  checki "without a protocol line nothing is protocol" 0
    (List.length
       (run_rules
          [
            ("lib/core/proto.ml", proto_ml);
            ("lib/net/sender.ml", "let f net = send net Halt");
          ]))

(* The protocol line names a file the run does not hold: without the
   finding, R7 would know no protocol type and pass the unhandled [Halt]. *)
let r7_stale_protocol_path_fires () =
  Alcotest.(check (list (pair string string)))
    "attributed to the missing path"
    [ ("lib/core/gone.ml", "R7") ]
    (run_rules
       ~config:(Config.parse "protocol lib/core/gone.ml msg")
       [
         ("lib/core/proto.ml", proto_ml);
         ("lib/net/sender.ml", "let f net = send net Halt");
       ])

let wildcard_dispatch =
  "let g m = match m with Ping n -> n | Pong -> 0 | _ -> 1"

let r7_wildcard_dispatch_fires () =
  (* Two constructors matched, [Halt] swallowed by the catch-all, in a
     dispatch-scoped path. Nobody sends [Halt], so only leg 2 fires. *)
  Alcotest.(check (list (pair string string)))
    "attributed to the catch-all"
    [ ("lib/core/dispatch.ml", "R7") ]
    (run_rules ~config:proto_cfg
       [
         ("lib/core/proto.ml", proto_ml);
         ("lib/core/dispatch.ml", wildcard_dispatch);
       ])

let r7_enumerated_dispatch_passes () =
  checki "full enumeration has no catch-all to flag" 0
    (List.length
       (run_rules ~config:proto_cfg
          [
            ("lib/core/proto.ml", proto_ml);
            ("lib/core/dispatch.ml",
             "let g m = match m with Ping n -> n | Pong -> 0 | Halt -> 1");
          ]))

let r7_dispatch_scope () =
  checki "wildcard dispatch outside lib/core and lib/repl is fine" 0
    (List.length
       (run_rules ~config:proto_cfg
          [
            ("lib/core/proto.ml", proto_ml);
            ("lib/net/dispatch.ml", wildcard_dispatch);
          ]))

let r7_single_ctor_filter_is_not_a_dispatch () =
  (* One constructor plus a catch-all is the idiomatic message filter. *)
  checki "filter idiom passes" 0
    (List.length
       (run_rules ~config:proto_cfg
          [
            ("lib/core/proto.ml", proto_ml);
            ("lib/core/filter.ml",
             "let f = function Ping n -> Some n | _ -> None");
          ]))

let r7_waived () =
  checki "flow-ok next to the catch-all waives" 0
    (List.length
       (run_rules ~config:proto_cfg
          [
            ("lib/core/proto.ml", proto_ml);
            ("lib/core/dispatch.ml",
             "let g m = match m with\n\
             \  | Ping n -> n\n\
             \  | Pong -> 0\n\
             \  (* lint: flow-ok fixture *)\n\
             \  | _ -> 1");
          ]))

(* ---------------------------------------------------------------- R8 *)

let phase_cfg = Config.parse "phase-msg Start_advancement"

let r8_fires () =
  check_rules "phase send with no append anywhere" ~config:phase_cfg
    ~filename:"lib/core/a.ml"
    "let f net = broadcast net (Start_advancement 1)" [ "R8" ]

let r8_passes () =
  check_rules "append sequenced before the send" ~config:phase_cfg
    ~filename:"lib/core/a.ml"
    "let f log net e =\n\
    \  Coord_log.append log e;\n\
    \  broadcast net (Start_advancement 1)"
    []

let r8_branch_miss_fires () =
  (* A dominator on only one arm of an [if] does not dominate the join. *)
  check_rules "append on one branch only" ~config:phase_cfg
    ~filename:"lib/core/a.ml"
    "let f log net e c =\n\
    \  (if c then Coord_log.append log e);\n\
    \  broadcast net (Start_advancement 1)"
    [ "R8" ]

let r8_both_branches_pass () =
  check_rules "append on every arm dominates" ~config:phase_cfg
    ~filename:"lib/core/a.ml"
    "let f log net a b c =\n\
    \  (if c then Coord_log.append log a else Coord_log.append log b);\n\
    \  broadcast net (Start_advancement 1)"
    []

let r8_closure_inherits_dominance () =
  (* The resend-closure idiom: a closure built after the append inherits
     the dominated state at its definition point. *)
  check_rules "resend closure after the append" ~config:phase_cfg
    ~filename:"lib/core/a.ml"
    "let f log net e =\n\
    \  Coord_log.append log e;\n\
    \  let resend () = broadcast net (Start_advancement 1) in\n\
    \  resend ()"
    []

let r8_local_fn_may_dominate () =
  (* The engine's [enter phase] helper: calling a let-bound function whose
     body contains an append counts as a (may-)dominator. *)
  check_rules "local helper containing the append" ~config:phase_cfg
    ~filename:"lib/core/a.ml"
    "let f log net e c =\n\
    \  let enter () = if c then Coord_log.append log e in\n\
    \  enter ();\n\
    \  broadcast net (Start_advancement 1)"
    []

let r8_needs_config () =
  check_rules "no phase-msg lines, no rule" ~filename:"lib/core/a.ml"
    "let f net = broadcast net (Start_advancement 1)" []

let r8_waived () =
  check_rules "order-ok waiver" ~config:phase_cfg ~filename:"lib/core/a.ml"
    "let f net = broadcast net (Start_advancement 1) (* lint: order-ok \
     fixture *)"
    []

(* ---------------------------------------------------------------- R9 *)

let r9_fires () =
  check_rules "bare Mvstore.gc" ~filename:"lib/core/a.ml"
    "let f s = Mvstore.gc s 3" [ "R9" ]

let r9_if_guard_passes () =
  check_rules "gc under a gc_floor comparison" ~filename:"lib/core/a.ml"
    "let f s keep = if Mvstore.gc_floor s < keep then Mvstore.gc s keep" []

let r9_when_guard_passes () =
  check_rules "gc under a gc_floor when-clause" ~filename:"lib/core/a.ml"
    "let f s keep =\n\
    \  match s with\n\
    \  | x when Mvstore.gc_floor x < keep -> Mvstore.gc x keep\n\
    \  | _ -> ()"
    []

let r9_scope () =
  check_rules "outside lib/ the rule is silent" ~filename:"bench/a.ml"
    "let f s = Mvstore.gc s 3" []

let r9_waived () =
  check_rules "guard-ok waiver" ~filename:"lib/core/a.ml"
    "let f s = Mvstore.gc s 3 (* lint: guard-ok fixture *)" []

(* R4 rides the same dominance engine; the guarded region extends into
   closures defined inside it. *)
let r4_closure_in_guard_passes () =
  check_rules "emission in a closure built under the guard"
    ~filename:"lib/core/a.ml"
    "let f t trace =\n\
    \  if tracing t then begin\n\
    \    let g () = Trace.emit trace \"x\" in\n\
    \    g ()\n\
    \  end"
    []

(* ---------------------------------------------------------------- R10 *)

let r10_fires () =
  check_rules "unsafe array read" ~filename:"lib/x/a.ml"
    "let f a i = Array.unsafe_get a i" [ "R10" ];
  check_rules "Obj.magic" ~filename:"lib/x/a.ml"
    "let f x = Obj.magic x" [ "R10" ]

let r10_passes () =
  check_rules "checked accessor" ~filename:"lib/x/a.ml"
    "let f a i = Array.get a i" []

let r10_allowlisted () =
  let config = Config.parse "allow R10 lib/core/counters.ml fixture" in
  let kept, _, allowlisted =
    Driver.lint_source ~config ~filename:"lib/core/counters.ml"
      "let f a i = Array.unsafe_get a i"
  in
  checki "kept" 0 (List.length kept);
  checki "allowlisted" 1 allowlisted;
  check_rules "other files keep firing" ~config ~filename:"lib/core/vclock.ml"
    "let f a i = Array.unsafe_get a i" [ "R10" ]

let r10_waived () =
  check_rules "unsafe-ok waiver" ~filename:"lib/x/a.ml"
    "let f a i = Array.unsafe_get a i (* lint: unsafe-ok fixture *)" []

(* --------------------------------------------------------------- R12 *)

let r12_fires () =
  check_rules "tab" ~filename:"lib/x/a.ml" "let f x =\n\tx" [ "R12" ];
  check_rules "trailing whitespace" ~filename:"lib/x/a.ml" "let f x = x \n" [ "R12" ];
  check_rules "101 columns" ~filename:"lib/x/a.ml"
    ("let s = \"" ^ String.make 91 'a' ^ "\"") [ "R12" ];
  (* One finding per kind and line, at the column where it starts. *)
  let found =
    List.map
      (fun (f : Report.finding) -> (f.Report.line, f.Report.col, f.Report.msg))
      (Lint.Rules.layout ~file:"test/t.ml" "let x = 1\nlet y =\t2 \t \n")
  in
  Alcotest.(check (list (triple int int string)))
    "tab and trailing whitespace on line 2"
    [ (2, 7, "tab character"); (2, 9, "trailing whitespace") ]
    found

let r12_passes () =
  (* Columns are code points: 100 dashes of three bytes each fit. *)
  let dashes = String.concat "" (List.init 90 (fun _ -> "\u{2014}")) in
  check_rules "100 columns of UTF-8" ~filename:"lib/x/a.ml"
    ("(* " ^ dashes ^ " *)\nlet s = \"a\"\n") [];
  check_rules "layout-ok waiver" ~filename:"lib/x/a.ml"
    "let f x = x (* lint: layout-ok fixture *) \n" []

(* A tree walk applies R12 to test/ too, and nothing else there: a test
   file may call the global RNG, but not carry a tab. *)
let r12_reads_test_tree () =
  let root = Filename.temp_dir "lint" "" in
  let path rel = Filename.concat root rel in
  let write rel text =
    Out_channel.with_open_bin (path rel) (fun oc -> Out_channel.output_string oc text)
  in
  Sys.mkdir (path "test") 0o755;
  write "test/t.ml" "let f () = Random.int 10\nlet g x =\tx\n";
  let walked =
    Fun.protect
      (fun () -> Driver.run ~root ())
      ~finally:(fun () ->
        Sys.remove (path "test/t.ml");
        Sys.rmdir (path "test");
        Sys.rmdir root)
  in
  Alcotest.(check (list (triple string int string)))
    "one R12 finding in test/"
    [ ("test/t.ml", 2, "R12") ]
    (List.map
       (fun (f : Report.finding) -> (f.Report.file, f.Report.line, f.Report.rule))
       walked.Report.findings);
  checki "test/ files are scanned" 1 walked.Report.files_scanned

(* -------------------------------------------------- config resolution *)

(* Every lint.config line must resolve to something in the scanned tree; a
   line that resolves to nothing is a finding of the rule that reads it.
   One fixture per kind of line, each beside a line of the same kind that
   does resolve. *)
let config_findings config sources =
  List.map
    (fun (f : Report.finding) -> (f.Report.file, f.Report.rule))
    (Driver.run_sources ~config:(Config.parse config) sources).Report.findings

let proto_sources =
  [
    ( "lib/core/proto.ml",
      "type msg = Ping of int | Pong | Halt\ntype state = { mutable n : int }" );
  ]

let stale_allow_glob_fires () =
  Alcotest.(check (list (pair string string)))
    "an allow glob matching no file" [ ("lib/gone/**", "R10") ]
    (config_findings "allow R10 lib/core/*.ml fixture\nallow R10 lib/gone/** fixture"
       proto_sources)

let stale_protocol_type_fires () =
  Alcotest.(check (list (pair string string)))
    "a protocol type its file does not declare as a variant"
    [ ("lib/core/proto.ml", "R7"); ("lib/core/proto.ml", "R7") ]
    (config_findings
       "protocol lib/core/proto.ml msg\nprotocol lib/core/proto.ml packet\n\
        protocol lib/core/proto.ml state"
       proto_sources)

let stale_phase_msg_fires () =
  Alcotest.(check (list (pair string string)))
    "a phase message no variant declares" [ ("lint.config", "R8") ]
    (config_findings "phase-msg Halt\nphase-msg Start_advancement" proto_sources)

let stale_deny_type_fires () =
  Alcotest.(check (list (pair string string)))
    "a denied type no module declares"
    [ ("lint.config", "R3"); ("lint.config", "R3") ]
    (config_findings "deny-type Proto.state\ndeny-type Proto.queue\ndeny-type Ivar.state"
       proto_sources)

(* ------------------------------------------------------------- syntax *)

let syntax_error_is_a_finding () =
  check_rules "unparseable input" ~filename:"lib/x/a.ml" "let = (" [ "syntax" ]

(* ----------------------------------------------------- config plumbing *)

let allowlist_suppresses_and_counts () =
  let config = Config.parse "allow R1 lib/x/** fixture" in
  let kept, _, allowlisted =
    Driver.lint_source ~config ~filename:"lib/x/a.ml"
      "let f () = Random.int 10"
  in
  checki "kept" 0 (List.length kept);
  checki "allowlisted" 1 allowlisted;
  (* The allow is path-scoped: other files keep firing. *)
  check_rules "other path still fires" ~config ~filename:"lib/y/a.ml"
    "let f () = Random.int 10" [ "R1" ]

let glob_semantics () =
  checkb "** spans segments" true (Config.glob_match "lib/**" "lib/a/b.ml");
  checkb "* stays in segment" true (Config.glob_match "lib/*.ml" "lib/a.ml");
  checkb "* does not cross /" false (Config.glob_match "lib/*.ml" "lib/a/b.ml");
  checkb "exact" true (Config.glob_match "bench/main.ml" "bench/main.ml")

let unknown_directive_rejected () =
  Alcotest.check_raises "unknown directive"
    (Invalid_argument "lint.config: unknown directive \"frobnicate\"")
    (fun () -> ignore (Config.parse "frobnicate x"))

(* ------------------------------------------------------- waiver lexing *)

(* The waiver scan is a lexer, not a substring search: markers arm only
   inside comments. A ["lint: <tag>"] in a string literal — a test fixture,
   a help text — must not suppress anything. *)
let waiver_in_string_literal_does_not_waive () =
  check_rules "marker inside a string literal" ~filename:"lib/x/a.ml"
    "let help = \"waive with (* lint: nondet-ok *)\"\n\
     let f () = Random.int 10"
    [ "R1" ];
  (* Same inside a comment: OCaml's lexer skips strings within comments,
     and so does the waiver scan. *)
  check_rules "marker inside a string inside a comment"
    ~filename:"lib/x/a.ml"
    "(* the tag is \"lint: nondet-ok\" *)\nlet f () = Random.int 10" [ "R1" ]

let waiver_window_spans_multiline_comment () =
  (* The window runs from the marker line through two lines past the
     comment's close, so a multi-line justification still covers the code
     beneath it. *)
  check_rules "justification on its own lines" ~filename:"lib/x/a.ml"
    "(* lint: nondet-ok — fixture with a\n\
    \   two-line justification *)\n\
     let f () = Random.int 10"
    []

let waiver_window_is_bounded () =
  (* Three blank lines past the close is out of the window: the finding
     comes back. *)
  check_rules "stale waiver does not reach" ~filename:"lib/x/a.ml"
    "(* lint: nondet-ok fixture *)\n\n\n\nlet f () = Random.int 10" [ "R1" ]

let waiver_tags_cover_catalog () =
  (* Every cataloged rule (not [syntax]) has exactly one waiver tag. *)
  let tagged = List.sort_uniq String.compare (List.map snd Driver.waiver_tags) in
  Alcotest.(check (list string))
    "one tag per rule"
    (List.sort String.compare (List.map fst Lint.Rules.all))
    tagged

(* The committed lint.config + the real tree: the gate is at zero and the
   committed report is current. This is the in-process twin of the
   `threev_sim lint` runtest rule, so a regression is caught even when only
   unit tests run. Tests run from test/ inside _build, where test/dune's
   deps put the configuration, the report and the scanned trees one level
   up; a missing input fails the case rather than skipping it. *)
let tree_is_lint_clean () =
  List.iter
    (fun input ->
      if not (Sys.file_exists (Filename.concat ".." input)) then
        Alcotest.failf "lint input ../%s is missing" input)
    [ "lint.config"; "LINT_report.json"; "lib"; "bin"; "test" ];
  (* [config_path] is resolved against [root] by the driver. *)
  let report = Driver.run ~config_path:"lint.config" ~root:".." () in
  checki "non-waived findings" 0 (Report.total report);
  let committed =
    Report.of_json (In_channel.with_open_bin "../LINT_report.json" In_channel.input_all)
  in
  checkb "LINT_report.json matches a fresh run" true (committed = report)

(* ------------------------------------------------------------- qcheck *)

let finding_gen =
  QCheck.Gen.(
    let* file = oneofl [ "lib/a.ml"; "lib/b/c.ml"; "bench/d.ml" ] in
    let* line = 1 -- 999 in
    let* col = 0 -- 80 in
    let* rule = oneofl (Report.rule_ids @ [ "R99" ]) in
    let* msg = string_size ~gen:printable (0 -- 40) in
    return { Report.file; line; col; rule; msg })

let arbitrary_report =
  QCheck.make
    QCheck.Gen.(
      let* findings = list_size (0 -- 30) finding_gen in
      let* files_scanned = 0 -- 500 in
      let* waived = 0 -- 50 in
      let* allowlisted = 0 -- 50 in
      return (Report.make ~findings ~files_scanned ~waived ~allowlisted))

(* lint/v2 JSON round-trips: parsing [to_json] succeeds, re-serializing
   reproduces the bytes, and the embedded counts sum to the total. *)
let report_json_roundtrips =
  QCheck.Test.make ~name:"report JSON round-trips, counts sum to total"
    ~count:300 arbitrary_report (fun r ->
      let doc = Report.to_json r in
      let json = Report.json_of_string doc in
      let fields = match json with Report.Obj kvs -> kvs | _ -> [] in
      let int_field name =
        match List.assoc_opt name fields with
        | Some (Report.Int n) -> n
        | _ -> -1
      in
      let counts_sum =
        match List.assoc_opt "counts" fields with
        | Some (Report.Obj kvs) ->
            List.fold_left
              (fun acc (_, v) ->
                match v with Report.Int n -> acc + n | _ -> acc)
              0 kvs
        | _ -> -1
      in
      let findings_len =
        match List.assoc_opt "findings" fields with
        | Some (Report.List l) -> List.length l
        | _ -> -1
      in
      Report.json_to_string json = doc
      && int_field "total" = Report.total r
      && counts_sum = Report.total r
      && findings_len = Report.total r)

(* The counts invariant holds on the OCaml side too, including findings
   whose rule id is outside the catalog. *)
let counts_sum_to_total =
  QCheck.Test.make ~name:"Report.counts sums to Report.total" ~count:300
    arbitrary_report (fun r ->
      List.fold_left (fun acc (_, n) -> acc + n) 0 (Report.counts r)
      = Report.total r
      && List.for_all (fun id -> List.mem_assoc id (Report.counts r))
           Report.rule_ids)

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Report.Null;
        map (fun b -> Report.Bool b) bool;
        map (fun i -> Report.Int i) small_signed_int;
        map (fun s -> Report.String s) (string_size (0 -- 12));
      ]
  in
  sized_size (0 -- 3) (fun fuel ->
      fix
        (fun self fuel ->
          if fuel = 0 then scalar
          else
            oneof
              [
                scalar;
                map (fun l -> Report.List l)
                  (list_size (0 -- 4) (self (fuel - 1)));
                map
                  (fun kvs -> Report.Obj kvs)
                  (list_size (0 -- 4)
                     (pair (string_size (0 -- 6)) (self (fuel - 1))));
              ])
        fuel)

let json_value_roundtrips =
  QCheck.Test.make ~name:"json value print/parse round-trips" ~count:500
    (QCheck.make json_gen) (fun j ->
      Report.json_of_string (Report.json_to_string j) = j)

(* The typed round-trip: [of_json] inverts [to_json] up to the derived
   fields it recomputes — i.e. exactly, since [make] canonicalizes both
   sides. *)
let report_of_json_roundtrips =
  QCheck.Test.make ~name:"Report.of_json inverts to_json" ~count:300
    arbitrary_report (fun r -> Report.of_json (Report.to_json r) = r)

let of_json_accepts_v1 () =
  (* The legacy schema tag parses; everything else about the layout is
     identical, and derived fields are recomputed rather than trusted. *)
  let doc =
    "{\"schema\":\"lint/v1\",\"files_scanned\":3,\"total\":99,\"waived\":1,\
     \"allowlisted\":2,\"counts\":{\"R1\":99},\"findings\":[{\"file\":\
     \"lib/a.ml\",\"line\":4,\"col\":2,\"rule\":\"R1\",\"msg\":\"boom\"}]}"
  in
  let r = Report.of_json doc in
  checki "files_scanned" 3 r.Report.files_scanned;
  checki "waived" 1 r.Report.waived;
  checki "total recomputed, not trusted" 1 (Report.total r)

let of_json_rejects_garbage () =
  let rejects doc =
    match Report.of_json doc with
    | _ -> Alcotest.failf "accepted %S" doc
    | exception Report.Parse_error _ -> ()
  in
  rejects "{\"schema\":\"lint/v3\",\"findings\":[]}";
  rejects "{\"findings\":[]}";
  rejects "[1,2,3]";
  rejects "not json at all"

(* ----------------------------------------------------------- baseline *)

let finding ?(line = 1) ?(col = 0) ~file ~rule msg =
  { Report.file; line; col; rule; msg }

let diff_matches_per_occurrence () =
  let old_f = finding ~file:"lib/a.ml" ~rule:"R1" "old" in
  let new_f = finding ~file:"lib/a.ml" ~rule:"R1" "new" in
  (* A baselined finding is consumed once per occurrence: two identical
     current findings against one baseline entry keep one. *)
  Alcotest.(check int)
    "second occurrence is new" 1
    (List.length
       (Report.diff ~baseline:[ old_f ]
          [ old_f; { old_f with Report.line = 7 }; new_f ]
        |> List.filter (fun f -> f.Report.msg = "old")));
  Alcotest.(check (list string))
    "new finding always kept" [ "new" ]
    (List.map
       (fun f -> f.Report.msg)
       (Report.diff ~baseline:[ old_f ] [ old_f; new_f ])
     |> List.filter (fun m -> m = "new"))

(* The ratchet property: line drift never resurrects a baselined finding,
   and findings absent from the baseline always survive the diff. Old and
   new finding populations are kept key-disjoint by construction (msg
   prefixes), since the match key is (file, rule, msg). *)
let baseline_diff_property =
  let prefixed p =
    QCheck.Gen.map (fun f -> { f with Report.msg = p ^ f.Report.msg }) finding_gen
  in
  QCheck.Test.make ~name:"diff suppresses drifted old, keeps new" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* olds = list_size (0 -- 15) (prefixed "OLD:") in
         let* news = list_size (0 -- 15) (prefixed "NEW:") in
         let* shift = 1 -- 50 in
         return (olds, news, shift)))
    (fun (olds, news, shift) ->
      let drifted =
        List.map (fun f -> { f with Report.line = f.Report.line + shift }) olds
      in
      Report.diff ~baseline:olds (drifted @ news) = news)

(* ---------------------------------------------------------------- run *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "lint"
    [
      ( "r1",
        [
          Alcotest.test_case "fires" `Quick r1_fires;
          Alcotest.test_case "passes" `Quick r1_passes;
          Alcotest.test_case "waived" `Quick r1_waived;
          Alcotest.test_case "waiver rule-scoped" `Quick
            r1_waiver_is_rule_scoped;
        ] );
      ( "r2",
        [
          Alcotest.test_case "fires" `Quick r2_fires;
          Alcotest.test_case "passes" `Quick r2_passes;
          Alcotest.test_case "to_seq family" `Quick r2_to_seq_family;
          Alcotest.test_case "per-item granularity" `Quick
            r2_sort_elsewhere_does_not_excuse;
          Alcotest.test_case "waived" `Quick r2_waived;
          Alcotest.test_case "counter_set tripwire" `Quick
            r2_counter_set_tripwire;
        ] );
      ( "r3",
        [
          Alcotest.test_case "fires" `Quick r3_fires;
          Alcotest.test_case "passes" `Quick r3_passes;
          Alcotest.test_case "waived" `Quick r3_waived;
        ] );
      ( "r4",
        [
          Alcotest.test_case "fires" `Quick r4_fires;
          Alcotest.test_case "emitters" `Quick r4_emitters;
          Alcotest.test_case "passes" `Quick r4_passes;
          Alcotest.test_case "waived" `Quick r4_waived;
        ] );
      ( "r5",
        [
          Alcotest.test_case "fires" `Quick r5_fires;
          Alcotest.test_case "passes" `Quick r5_passes;
          Alcotest.test_case "waived" `Quick r5_waived;
          Alcotest.test_case "engine fires" `Quick r5_engine_fires;
          Alcotest.test_case "engine passes" `Quick r5_engine_passes;
          Alcotest.test_case "stale engine line fires" `Quick
            r5_stale_engine_line_fires;
        ] );
      ( "r6",
        [
          Alcotest.test_case "fires" `Quick r6_fires;
          Alcotest.test_case "passes" `Quick r6_passes;
          Alcotest.test_case "waived" `Quick r6_waived;
        ] );
      ( "r7",
        [
          Alcotest.test_case "unhandled send fires" `Quick
            r7_unhandled_send_fires;
          Alcotest.test_case "handled send passes" `Quick
            r7_handled_send_passes;
          Alcotest.test_case "let-bound send resolves" `Quick
            r7_let_bound_send_resolves;
          Alcotest.test_case "needs protocol config" `Quick
            r7_no_protocol_config_is_silent;
          Alcotest.test_case "stale protocol path fires" `Quick
            r7_stale_protocol_path_fires;
          Alcotest.test_case "wildcard dispatch fires" `Quick
            r7_wildcard_dispatch_fires;
          Alcotest.test_case "enumerated dispatch passes" `Quick
            r7_enumerated_dispatch_passes;
          Alcotest.test_case "dispatch scope" `Quick r7_dispatch_scope;
          Alcotest.test_case "filter idiom passes" `Quick
            r7_single_ctor_filter_is_not_a_dispatch;
          Alcotest.test_case "waived" `Quick r7_waived;
        ] );
      ( "r8",
        [
          Alcotest.test_case "fires" `Quick r8_fires;
          Alcotest.test_case "passes" `Quick r8_passes;
          Alcotest.test_case "branch miss fires" `Quick r8_branch_miss_fires;
          Alcotest.test_case "both branches pass" `Quick r8_both_branches_pass;
          Alcotest.test_case "closure inherits" `Quick
            r8_closure_inherits_dominance;
          Alcotest.test_case "local fn may dominate" `Quick
            r8_local_fn_may_dominate;
          Alcotest.test_case "needs config" `Quick r8_needs_config;
          Alcotest.test_case "waived" `Quick r8_waived;
        ] );
      ( "r9",
        [
          Alcotest.test_case "fires" `Quick r9_fires;
          Alcotest.test_case "if guard passes" `Quick r9_if_guard_passes;
          Alcotest.test_case "when guard passes" `Quick r9_when_guard_passes;
          Alcotest.test_case "scope" `Quick r9_scope;
          Alcotest.test_case "waived" `Quick r9_waived;
          Alcotest.test_case "r4 closure in guard" `Quick
            r4_closure_in_guard_passes;
        ] );
      ( "r10",
        [
          Alcotest.test_case "fires" `Quick r10_fires;
          Alcotest.test_case "passes" `Quick r10_passes;
          Alcotest.test_case "allowlisted" `Quick r10_allowlisted;
          Alcotest.test_case "waived" `Quick r10_waived;
        ] );
      ( "r12",
        [
          Alcotest.test_case "fires" `Quick r12_fires;
          Alcotest.test_case "passes" `Quick r12_passes;
          Alcotest.test_case "reads test tree" `Quick r12_reads_test_tree;
        ] );
      ( "config",
        [
          Alcotest.test_case "stale allow glob fires" `Quick stale_allow_glob_fires;
          Alcotest.test_case "stale protocol type fires" `Quick stale_protocol_type_fires;
          Alcotest.test_case "stale phase-msg fires" `Quick stale_phase_msg_fires;
          Alcotest.test_case "stale deny-type fires" `Quick stale_deny_type_fires;
        ] );
      ( "driver",
        [
          Alcotest.test_case "syntax error" `Quick syntax_error_is_a_finding;
          Alcotest.test_case "allowlist" `Quick allowlist_suppresses_and_counts;
          Alcotest.test_case "glob" `Quick glob_semantics;
          Alcotest.test_case "unknown directive" `Quick
            unknown_directive_rejected;
          Alcotest.test_case "tree clean" `Quick tree_is_lint_clean;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "string literal is inert" `Quick
            waiver_in_string_literal_does_not_waive;
          Alcotest.test_case "multiline comment window" `Quick
            waiver_window_spans_multiline_comment;
          Alcotest.test_case "window is bounded" `Quick
            waiver_window_is_bounded;
          Alcotest.test_case "tags cover catalog" `Quick
            waiver_tags_cover_catalog;
        ] );
      ( "report",
        [
          qc report_json_roundtrips;
          qc counts_sum_to_total;
          qc json_value_roundtrips;
          qc report_of_json_roundtrips;
          Alcotest.test_case "of_json accepts v1" `Quick of_json_accepts_v1;
          Alcotest.test_case "of_json rejects garbage" `Quick
            of_json_rejects_garbage;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "per-occurrence match" `Quick
            diff_matches_per_occurrence;
          qc baseline_diff_property;
        ] );
    ]
