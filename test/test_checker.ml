(* Tests for the offline correctness checkers, on hand-built histories. *)

module Spec = Txn.Spec
module Op = Txn.Op
module Key = Store.Key
module Value = Txn.Value
module Result = Txn.Result
module Atomicity = Checker.Atomicity
module Staleness = Checker.Staleness
module Replay = Checker.Replay

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* History-building helpers. *)

let update_spec ~id keys =
  match keys with
  | [] -> invalid_arg "update_spec"
  | first :: rest ->
      Spec.make ~id
        (Spec.subtxn
           ~children:
             (List.mapi (fun i k -> Spec.subtxn (i + 1) [ Op.Incr (Key.intern k, 1.) ]) rest)
           0
           [ Op.Incr (Key.intern first, 1.) ])

let read_spec ~id keys =
  match keys with
  | [] -> invalid_arg "read_spec"
  | first :: rest ->
      Spec.make ~id
        (Spec.subtxn
           ~children:(List.mapi (fun i k -> Spec.subtxn (i + 1) [ Op.Read (Key.intern k) ]) rest)
           0
           [ Op.Read (Key.intern first) ])

let committed_result ~id ?(version = 1) ?(reads = []) ?(submit = 0.)
    ?(complete = 1.) () =
  {
    Result.txn_id = id;
    served_by = 0;
    outcome = Result.Committed;
    version;
    reads;
    submit_time = submit;
    root_commit_time = submit;
    complete_time = complete;
  }

(* A value as a read would observe it: tagged with the writers seen. *)
let value_with writers =
  List.fold_left (fun v txn -> Value.incr ~txn ~delta:1. v) Value.empty writers

(* ---------------------------------------------------- history index *)

(* One key, three effect-ful writers. [merge] reports each writer once, as
   seen or unseen, walking down from the newest; then each stray tag once,
   ascending. *)
let merge_reports_each_once () =
  let module Index = Checker.History_index in
  let history =
    List.map (fun id -> (update_spec ~id [ "k" ], committed_result ~id ())) [ 10; 20; 30 ]
  in
  let idx = Index.build history in
  let id p = idx.Index.w_id.(p) in
  List.iter
    (fun (name, tags, expected) ->
      let events = ref [] in
      let note what x = events := Printf.sprintf "%s %d" what x :: !events in
      Index.merge idx (Index.writers idx (Key.intern "k")) (value_with tags).Value.writers
        ~seen:(fun p -> note "seen" (id p))
        ~unseen:(fun p -> note "unseen" (id p))
        ~stray:(note "stray");
      Alcotest.(check (list string)) name expected (List.rev !events))
    [
      ("empty", [], [ "unseen 30"; "unseen 20"; "unseen 10" ]);
      ("complete", [ 10; 20; 30 ], [ "seen 30"; "seen 20"; "seen 10" ]);
      ("middle missing", [ 10; 30 ], [ "seen 30"; "unseen 20"; "seen 10" ]);
      ( "strays below, between and above",
        [ 5; 10; 15; 25; 30; 35 ],
        [ "seen 30"; "unseen 20"; "seen 10"; "stray 5"; "stray 15"; "stray 25"; "stray 35" ] );
    ]

(* -------------------------------------------------------- atomicity *)

let atomicity_clean_history () =
  let u = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let history =
    [
      (u, committed_result ~id:1 ());
      ( r,
        committed_result ~id:2
          ~reads:[ (Key.intern "a", value_with [ 1 ]); (Key.intern "b", value_with [ 1 ]) ]
          () );
    ]
  in
  let report = Atomicity.check history in
  checki "reads" 1 report.Atomicity.reads_checked;
  checki "pairs" 1 report.Atomicity.pairs_checked;
  checkb "clean" true (Atomicity.clean report)

let atomicity_all_or_nothing () =
  (* Seeing none of an update is fine too (stale but atomic). *)
  let u = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let history =
    [
      (u, committed_result ~id:1 ());
      ( r,
        committed_result ~id:2
          ~reads:[ (Key.intern "a", Value.empty); (Key.intern "b", Value.empty) ]
          () );
    ]
  in
  checkb "none observed is atomic" true (Atomicity.clean (Atomicity.check history))

let atomicity_detects_partial () =
  let u = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let history =
    [
      (u, committed_result ~id:1 ());
      ( r,
        committed_result ~id:2
          ~reads:[ (Key.intern "a", value_with [ 1 ]); (Key.intern "b", Value.empty) ]
          () );
    ]
  in
  let report = Atomicity.check history in
  checki "one partial read" 1 report.Atomicity.partial_reads;
  checkb "example recorded" true (report.Atomicity.examples = [ (2, 1) ])

let atomicity_single_key_overlap_ignored () =
  (* With only one overlapping key there is nothing to be partial about. *)
  let u = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "z" ] in
  let history =
    [
      (u, committed_result ~id:1 ());
      ( r,
        committed_result ~id:2
          ~reads:[ (Key.intern "a", value_with [ 1 ]); (Key.intern "z", Value.empty) ]
          () );
    ]
  in
  let report = Atomicity.check history in
  checki "no pairs" 0 report.Atomicity.pairs_checked;
  checkb "clean" true (Atomicity.clean report)

let atomicity_dirty_read () =
  let u = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let history =
    [
      ( u,
        {
          (committed_result ~id:1 ()) with
          Result.outcome = Result.Aborted "deadlock";
        } );
      ( r,
        committed_result ~id:2
          ~reads:[ (Key.intern "a", value_with [ 1 ]); (Key.intern "b", Value.empty) ]
          () );
    ]
  in
  let report = Atomicity.check history in
  checki "dirty read counted" 1 report.Atomicity.dirty_reads;
  checkb "not clean" false (Atomicity.clean report)

let atomicity_compensated_counts_as_effectful () =
  (* A compensated transaction's tags are visible; observing them on all
     overlapping keys is atomic, on a strict subset is a violation. *)
  let u = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let compensated =
    {
      (committed_result ~id:1 ()) with
      Result.outcome = Result.Aborted "compensated";
    }
  in
  let partial_history =
    [
      (u, compensated);
      ( r,
        committed_result ~id:2
          ~reads:[ (Key.intern "a", value_with [ 1 ]); (Key.intern "b", Value.empty) ]
          () );
    ]
  in
  let report = Atomicity.check partial_history in
  checki "partial observation of compensated txn flagged" 1
    report.Atomicity.partial_reads;
  checki "not a dirty read" 0 report.Atomicity.dirty_reads

let atomicity_aborted_reads_skipped () =
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let history =
    [
      ( r,
        {
          (committed_result ~id:2 ~reads:[ (Key.intern "a", value_with [ 1 ]) ] ()) with
          Result.outcome = Result.Aborted "timeout";
        } );
    ]
  in
  checki "aborted reads not checked" 0
    (Atomicity.check history).Atomicity.reads_checked

(* -------------------------------------------------------- staleness *)

let staleness_counts_missed () =
  let u1 = update_spec ~id:1 [ "a"; "b" ] in
  let u2 = update_spec ~id:2 [ "a"; "b" ] in
  let r = read_spec ~id:3 [ "a"; "b" ] in
  let history =
    [
      (u1, committed_result ~id:1 ~complete:1.0 ());
      (u2, committed_result ~id:2 ~complete:2.0 ());
      ( r,
        (* Submitted at t=5, saw u1 but missed u2. *)
        committed_result ~id:3 ~submit:5.
          ~reads:[ (Key.intern "a", value_with [ 1 ]); (Key.intern "b", value_with [ 1 ]) ]
          () );
    ]
  in
  let report = Staleness.measure history in
  checki "reads" 1 report.Staleness.reads;
  checki "missed" 1 report.Staleness.missed_total;
  Alcotest.(check (float 1e-9)) "lag is read.submit - u2.complete" 3.
    report.Staleness.max_lag

let staleness_future_updates_not_missed () =
  let u = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let history =
    [
      (u, committed_result ~id:1 ~complete:10.0 ());
      ( r,
        committed_result ~id:2 ~submit:5.
          ~reads:[ (Key.intern "a", Value.empty); (Key.intern "b", Value.empty) ]
          () );
    ]
  in
  let report = Staleness.measure history in
  checki "nothing applicable missed" 0 report.Staleness.missed_total

let staleness_fresh_reads () =
  let u = update_spec ~id:1 [ "a" ] in
  let r = read_spec ~id:2 [ "a" ] in
  let history =
    [
      (u, committed_result ~id:1 ~complete:1. ());
      (r, committed_result ~id:2 ~submit:2. ~reads:[ (Key.intern "a", value_with [ 1 ]) ] ());
    ]
  in
  let report = Staleness.measure history in
  checki "no misses" 0 report.Staleness.reads_with_misses;
  Alcotest.(check (float 1e-9)) "zero lag" 0. report.Staleness.mean_lag

(* ----------------------------------------------------------- replay *)

let replay_detects_mismatch () =
  let u1 = update_spec ~id:1 [ "a"; "b" ] in
  let u2 = update_spec ~id:2 [ "a" ] in
  let history =
    [
      (u1, committed_result ~id:1 ());
      (u2, committed_result ~id:2 ());
    ]
  in
  (* Correct store: a = 2, b = 1. *)
  let good_lookup key =
    let amount = if Key.name key = "a" then 2. else 1. in
    Some { Value.empty with Value.amount }
  in
  checkb "clean on correct store" true
    (Replay.clean (Replay.check history ~lookup:good_lookup));
  (* Lossy store: a lost one increment. *)
  let bad_lookup key =
    Some { Value.empty with Value.amount = (if Key.name key = "a" then 1. else 1.) }
  in
  let report = Replay.check history ~lookup:bad_lookup in
  checki "one mismatch" 1 report.Replay.mismatch_count;
  (match report.Replay.mismatches with
  | [ m ] ->
      Alcotest.(check string) "key" "a" m.Replay.key;
      Alcotest.(check (float 1e-9)) "expected" 2. m.Replay.expected
  | _ -> Alcotest.fail "expected one mismatch")

let replay_skips_overwritten_keys () =
  let u1 = update_spec ~id:1 [ "a" ] in
  let nc =
    Spec.make ~id:2
      (Spec.subtxn 0 [ Op.Overwrite (Key.intern "a", 99.); Op.Incr (Key.intern "c", 1.) ])
  in
  let history =
    [ (u1, committed_result ~id:1 ()); (nc, committed_result ~id:2 ()) ]
  in
  let report =
    Replay.check history ~lookup:(fun key ->
        if Key.name key = "c" then Some { Value.empty with Value.amount = 1. } else None)
  in
  checkb "a skipped, c checked, clean" true
    (report.Replay.keys_skipped = 1 && Replay.clean report)

let replay_uncommitted_excluded () =
  let u = update_spec ~id:1 [ "a" ] in
  let history =
    [ (u, { (committed_result ~id:1 ()) with Result.outcome = Result.Aborted "x" }) ]
  in
  let report = Replay.check history ~lookup:(fun _ -> None) in
  checkb "aborted txn contributes nothing" true (Replay.clean report)

let replay_missing_key_is_zero () =
  let u = update_spec ~id:1 [ "a" ] in
  let history = [ (u, committed_result ~id:1 ()) ] in
  let report = Replay.check history ~lookup:(fun _ -> None) in
  checki "missing key mismatches expected 1" 1 report.Replay.mismatch_count

(* ----------------------------------------------------- version reads *)

let vr_committed_at version ~id = committed_result ~id ~version ()

let version_reads_exact () =
  (* u1 at version 1, u2 at version 2; a read at version 1 must see u1 on
     every key and never u2. *)
  let u1 = update_spec ~id:1 [ "a"; "b" ] in
  let u2 = update_spec ~id:2 [ "a"; "b" ] in
  let r = read_spec ~id:3 [ "a"; "b" ] in
  let good =
    [
      (u1, vr_committed_at 1 ~id:1);
      (u2, vr_committed_at 2 ~id:2);
      ( r,
        {
          (vr_committed_at 1 ~id:3) with
          Result.reads = [ (Key.intern "a", value_with [ 1 ]); (Key.intern "b", value_with [ 1 ]) ];
        } );
    ]
  in
  checkb "exact set accepted" true
    (Checker.Version_reads.clean (Checker.Version_reads.check good))

let version_reads_missing () =
  let u1 = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let history =
    [
      (u1, vr_committed_at 1 ~id:1);
      ( r,
        {
          (vr_committed_at 1 ~id:2) with
          (* Missed u1 on b even though u1 has version <= the read's. *)
          Result.reads = [ (Key.intern "a", value_with [ 1 ]); (Key.intern "b", Value.empty) ];
        } );
    ]
  in
  let report = Checker.Version_reads.check history in
  checki "one violation" 1 report.Checker.Version_reads.violation_count;
  match report.Checker.Version_reads.violations with
  | [ v ] ->
      checkb "missing recorded" true
        (v.Checker.Version_reads.missing = [ 1 ]
        && v.Checker.Version_reads.key = "b")
  | _ -> Alcotest.fail "expected one violation"

let version_reads_leak () =
  let u2 = update_spec ~id:2 [ "a" ] in
  let r = read_spec ~id:3 [ "a" ] in
  let history =
    [
      (u2, vr_committed_at 2 ~id:2);
      ( r,
        {
          (vr_committed_at 1 ~id:3) with
          (* Saw a version-2 writer from a version-1 read: leak. *)
          Result.reads = [ (Key.intern "a", value_with [ 2 ]) ];
        } );
    ]
  in
  let report = Checker.Version_reads.check history in
  checki "leak flagged" 1 report.Checker.Version_reads.violation_count;
  (match report.Checker.Version_reads.violations with
  | [ v ] ->
      checkb "future leak id" true
        (v.Checker.Version_reads.leaked_future = [ 2 ]);
      checkb "no unknown tags" true (v.Checker.Version_reads.unknown = [])
  | _ -> Alcotest.fail "expected one violation")

let version_reads_unknown_writer () =
  let u2 = update_spec ~id:2 [ "a" ] in
  let r = read_spec ~id:3 [ "a" ] in
  let history =
    [
      (* Txn 2 aborted without compensation, yet its tag was observed: a
         dirty read. No effect-ful update accounts for the tag, so it must
         surface as [unknown], not [leaked_future]. *)
      ( u2,
        { (vr_committed_at 2 ~id:2) with Result.outcome = Result.Aborted "x" }
      );
      ( r,
        {
          (vr_committed_at 1 ~id:3) with
          Result.reads = [ (Key.intern "a", value_with [ 2 ]) ];
        } );
    ]
  in
  let report = Checker.Version_reads.check history in
  checki "dirty read flagged" 1 report.Checker.Version_reads.violation_count;
  match report.Checker.Version_reads.violations with
  | [ v ] ->
      checkb "unknown id" true (v.Checker.Version_reads.unknown = [ 2 ]);
      checkb "not a future leak" true
        (v.Checker.Version_reads.leaked_future = [])
  | _ -> Alcotest.fail "expected one violation"

let version_reads_aborted_excluded () =
  let u = update_spec ~id:1 [ "a" ] in
  let r = read_spec ~id:2 [ "a" ] in
  let history =
    [
      ( u,
        { (vr_committed_at 1 ~id:1) with Result.outcome = Result.Aborted "x" } );
      (r, { (vr_committed_at 1 ~id:2) with Result.reads = [ (Key.intern "a", Value.empty) ] });
    ]
  in
  checkb "aborted update not expected" true
    (Checker.Version_reads.clean (Checker.Version_reads.check history))

let version_reads_fenced_per_shard () =
  (* Nodes 0-1 are shard 0 and nodes 2-3 shard 1. One read looks at "a" on
     node 0 and at "b" on node 2 with the read vector [|1; 3|]: "a" is
     fenced at 1 and "b" at 3, whatever the root's own version says. *)
  let shard_of_node n = n / 2 in
  let write ~id ~node key =
    Spec.make ~id (Spec.subtxn node [ Op.Incr (Key.intern key, 1.) ])
  in
  let read ~id =
    Spec.make ~id
      (Spec.subtxn ~children:[ Spec.subtxn 2 [ Op.Read (Key.intern "b") ] ] 0
         [ Op.Read (Key.intern "a") ])
  in
  let history =
    [
      (write ~id:1 ~node:0 "a", vr_committed_at 1 ~id:1);
      (write ~id:2 ~node:2 "b", vr_committed_at 3 ~id:2);
      (write ~id:3 ~node:3 "b", vr_committed_at 4 ~id:3);
      ( read ~id:4,
        {
          (vr_committed_at 1 ~id:4) with
          Result.reads = [ (Key.intern "a", value_with [ 1 ]); (Key.intern "b", value_with [ 2 ]) ];
        } );
      ( read ~id:5,
        {
          (vr_committed_at 1 ~id:5) with
          Result.reads = [ (Key.intern "a", value_with [ 1 ]); (Key.intern "b", Value.empty) ];
        } );
    ]
  in
  let vector = function 4 | 5 -> Some [| 1; 3 |] | _ -> None in
  let report = Checker.Version_reads.check ~vector ~shard_of_node history in
  checki "observations" 4 report.Checker.Version_reads.observations;
  match report.Checker.Version_reads.violations with
  | [ v ] ->
      checki "only the unfenced read" 5 v.Checker.Version_reads.read_txn;
      checkb "on key b" true (v.Checker.Version_reads.key = "b");
      checki "fenced by shard 1's component" 3 v.Checker.Version_reads.version;
      checkb "missing writer 2" true (v.Checker.Version_reads.missing = [ 2 ])
  | _ -> Alcotest.fail "expected one violation"

(* -------------------------------------------------- serializability *)

module Srz = Checker.Serializability

(* A single-node spec with arbitrary ops (reads + writes mixed). *)
let rw_spec ~id ops = Spec.make ~id (Spec.subtxn 0 ops)

(* Every consecutive pair of witness edges must chain dst -> src, wrapping
   around — a genuine cycle, not just a bag of edges. *)
let well_formed_cycle = function
  | [] -> false
  | edges ->
      let arr = Array.of_list edges in
      let n = Array.length arr in
      let ok = ref true in
      Array.iteri
        (fun i e ->
          if e.Srz.dst <> arr.((i + 1) mod n).Srz.src then ok := false)
        arr;
      !ok

let flagged_with_witness history =
  let r = Srz.certify history in
  (not (Srz.serializable r))
  && (match r.Srz.cycle with Some c -> well_formed_cycle c | None -> false)

let srz_lost_update () =
  (* Both read the balance before either deposit landed, then both
     overwrite: whichever order they serialize in, the second must have
     seen the first. *)
  let t1 = rw_spec ~id:1 [ Op.Read (Key.intern "a"); Op.Overwrite (Key.intern "a", 10.) ] in
  let t2 = rw_spec ~id:2 [ Op.Read (Key.intern "a"); Op.Overwrite (Key.intern "a", 20.) ] in
  let history =
    [
      (t1, committed_result ~id:1 ~reads:[ (Key.intern "a", Value.empty) ] ());
      (t2, committed_result ~id:2 ~reads:[ (Key.intern "a", Value.empty) ] ());
    ]
  in
  checkb "lost update flagged" true (flagged_with_witness history);
  let r = Srz.certify history in
  checkb "two-edge witness" true
    (match r.Srz.cycle with Some c -> List.length c = 2 | None -> false)

let srz_write_skew () =
  (* t1 reads both and writes b; t2 reads both and writes a; neither sees
     the other. Atomic visibility holds — only the certifier catches it. *)
  let t1 =
    rw_spec ~id:1
      [ Op.Read (Key.intern "a"); Op.Read (Key.intern "b"); Op.Overwrite (Key.intern "b", 1.) ]
  in
  let t2 =
    rw_spec ~id:2
      [ Op.Read (Key.intern "a"); Op.Read (Key.intern "b"); Op.Overwrite (Key.intern "a", 1.) ]
  in
  let history =
    [
      ( t1,
        committed_result ~id:1
          ~reads:[ (Key.intern "a", Value.empty); (Key.intern "b", Value.empty) ]
          () );
      ( t2,
        committed_result ~id:2
          ~reads:[ (Key.intern "a", Value.empty); (Key.intern "b", Value.empty) ]
          () );
    ]
  in
  checkb "atomicity does not catch write skew" true
    (Atomicity.clean (Atomicity.check history));
  checkb "certifier flags write skew" true (flagged_with_witness history)

let srz_read_only_anomaly () =
  (* Two commuting writers of the same key; reader 3 sees only writer 1,
     reader 4 sees only writer 2 — each reader alone is consistent, but no
     serial order places both. *)
  let t1 = rw_spec ~id:1 [ Op.Incr (Key.intern "a", 1.) ] in
  let t2 = rw_spec ~id:2 [ Op.Incr (Key.intern "a", 1.) ] in
  let r1 = read_spec ~id:3 [ "a" ] in
  let r2 = read_spec ~id:4 [ "a" ] in
  let history =
    [
      (t1, committed_result ~id:1 ());
      (t2, committed_result ~id:2 ());
      (r1, committed_result ~id:3 ~reads:[ (Key.intern "a", value_with [ 1 ]) ] ());
      (r2, committed_result ~id:4 ~reads:[ (Key.intern "a", value_with [ 2 ]) ] ());
    ]
  in
  checkb "read-only anomaly flagged" true (flagged_with_witness history)

let srz_non_repeatable_read () =
  (* One transaction observes the same key with and without writer 1's
     tag: the writer lands both before and after the reader. *)
  let t1 = rw_spec ~id:1 [ Op.Incr (Key.intern "a", 1.) ] in
  let r = read_spec ~id:2 [ "a"; "a" ] in
  let history =
    [
      (t1, committed_result ~id:1 ());
      ( r,
        committed_result ~id:2
          ~reads:[ (Key.intern "a", value_with [ 1 ]); (Key.intern "a", Value.empty) ]
          () );
    ]
  in
  checkb "non-repeatable read flagged" true (flagged_with_witness history)

let srz_version_order_cycle () =
  (* Writer 2 overwrote at version 2, after writer 1's version-1 overwrite.
     A reader that saw 2's tag but not 1's contradicts tag monotonicity
     under that version order. *)
  let t1 = rw_spec ~id:1 [ Op.Overwrite (Key.intern "a", 1.) ] in
  let t2 = rw_spec ~id:2 [ Op.Overwrite (Key.intern "a", 2.) ] in
  let r = read_spec ~id:3 [ "a" ] in
  let history =
    [
      (t1, committed_result ~id:1 ~version:1 ());
      (t2, committed_result ~id:2 ~version:2 ());
      (r, committed_result ~id:3 ~version:2 ~reads:[ (Key.intern "a", value_with [ 2 ]) ] ());
    ]
  in
  let report = Srz.certify history in
  checki "ww edge present" 1 report.Srz.ww_edges;
  checkb "version-order cycle flagged" true (flagged_with_witness history)

let srz_commuting_writers_not_ordered () =
  (* Same shape but the writers commute (Incr): seeing the version-2
     increment without the version-1 one is serializable as t2, r, t1. A
     naive version-order edge between commuting writers would wrongly flag
     this. *)
  let t1 = rw_spec ~id:1 [ Op.Incr (Key.intern "a", 1.) ] in
  let t2 = rw_spec ~id:2 [ Op.Incr (Key.intern "a", 1.) ] in
  let r = read_spec ~id:3 [ "a" ] in
  let history =
    [
      (t1, committed_result ~id:1 ~version:1 ());
      (t2, committed_result ~id:2 ~version:2 ());
      (r, committed_result ~id:3 ~version:2 ~reads:[ (Key.intern "a", value_with [ 2 ]) ] ());
    ]
  in
  let report = Srz.certify history in
  checki "no ww edges between commuting writers" 0 report.Srz.ww_edges;
  checkb "serializable" true (Srz.serializable report)

let srz_clean_history () =
  let t1 = rw_spec ~id:1 [ Op.Incr (Key.intern "a", 1.); Op.Incr (Key.intern "b", 1.) ] in
  let t2 = rw_spec ~id:2 [ Op.Incr (Key.intern "a", 1.) ] in
  let r = read_spec ~id:3 [ "a"; "b" ] in
  let history =
    [
      (t1, committed_result ~id:1 ());
      (t2, committed_result ~id:2 ());
      ( r,
        committed_result ~id:3
          ~reads:[ (Key.intern "a", value_with [ 1; 2 ]); (Key.intern "b", value_with [ 1 ]) ]
          () );
    ]
  in
  let report = Srz.certify history in
  checkb "clean history certifies" true (Srz.serializable report);
  checki "nodes" 3 report.Srz.txns;
  checki "no unknown tags" 0 report.Srz.unknown_count

let srz_unknown_tag_reported () =
  (* A tag with no effect-ful writer behind it gets no edge but is
     surfaced. *)
  let r = read_spec ~id:2 [ "a" ] in
  let history =
    [ (r, committed_result ~id:2 ~reads:[ (Key.intern "a", value_with [ 99 ]) ] ()) ]
  in
  let report = Srz.certify history in
  checkb "still serializable" true (Srz.serializable report);
  checki "unknown counted" 1 report.Srz.unknown_count;
  checkb "unknown listed" true (report.Srz.unknown_tags = [ (2, "a", 99) ])

(* qcheck: randomized instances of the three anomaly families are always
   flagged, with a well-formed cycle witness. *)
let srz_anomalies_flagged =
  let gen =
    QCheck.Gen.(
      pair (int_range 0 2) (pair (int_range 1 50) (int_range 0 4)))
  in
  QCheck.Test.make ~name:"serializability: anomaly families always flagged"
    ~count:150 (QCheck.make gen)
    (fun (shape, (id_base, key_idx)) ->
      let name = Printf.sprintf "k%d" key_idx in
      let k = Key.intern name and k2 = Key.intern (name ^ "'") in
      let i1 = id_base and i2 = id_base + 1 and i3 = id_base + 2
      and i4 = id_base + 3 in
      let history =
        match shape with
        | 0 ->
            (* lost update on k *)
            [
              ( rw_spec ~id:i1 [ Op.Read k; Op.Overwrite (k, 1.) ],
                committed_result ~id:i1 ~reads:[ (k, Value.empty) ] () );
              ( rw_spec ~id:i2 [ Op.Read k; Op.Overwrite (k, 2.) ],
                committed_result ~id:i2 ~reads:[ (k, Value.empty) ] () );
            ]
        | 1 ->
            (* write skew across k, k2 *)
            [
              ( rw_spec ~id:i1 [ Op.Read k; Op.Read k2; Op.Overwrite (k2, 1.) ],
                committed_result ~id:i1
                  ~reads:[ (k, Value.empty); (k2, Value.empty) ]
                  () );
              ( rw_spec ~id:i2 [ Op.Read k; Op.Read k2; Op.Overwrite (k, 1.) ],
                committed_result ~id:i2
                  ~reads:[ (k, Value.empty); (k2, Value.empty) ]
                  () );
            ]
        | _ ->
            (* read-only anomaly: opposing one-sided observations *)
            [
              (rw_spec ~id:i1 [ Op.Incr (k, 1.) ], committed_result ~id:i1 ());
              (rw_spec ~id:i2 [ Op.Incr (k, 1.) ], committed_result ~id:i2 ());
              ( read_spec ~id:i3 [ name ],
                committed_result ~id:i3 ~reads:[ (k, value_with [ i1 ]) ] () );
              ( read_spec ~id:i4 [ name ],
                committed_result ~id:i4 ~reads:[ (k, value_with [ i2 ]) ] () );
            ]
      in
      flagged_with_witness history)

let () =
  Alcotest.run "checker"
    [
      ("history-index", [ Alcotest.test_case "merge order" `Quick merge_reports_each_once ]);
      ( "atomicity",
        [
          Alcotest.test_case "clean history" `Quick atomicity_clean_history;
          Alcotest.test_case "all-or-nothing" `Quick atomicity_all_or_nothing;
          Alcotest.test_case "detects partial" `Quick atomicity_detects_partial;
          Alcotest.test_case "single-key overlap ignored" `Quick
            atomicity_single_key_overlap_ignored;
          Alcotest.test_case "dirty read" `Quick atomicity_dirty_read;
          Alcotest.test_case "compensated is effectful" `Quick
            atomicity_compensated_counts_as_effectful;
          Alcotest.test_case "aborted reads skipped" `Quick
            atomicity_aborted_reads_skipped;
        ] );
      ( "staleness",
        [
          Alcotest.test_case "counts missed" `Quick staleness_counts_missed;
          Alcotest.test_case "future updates excluded" `Quick
            staleness_future_updates_not_missed;
          Alcotest.test_case "fresh reads" `Quick staleness_fresh_reads;
        ] );
      ( "version-reads",
        [
          Alcotest.test_case "exact set accepted" `Quick version_reads_exact;
          Alcotest.test_case "missing detected" `Quick version_reads_missing;
          Alcotest.test_case "leak detected" `Quick version_reads_leak;
          Alcotest.test_case "unknown writer distinguished" `Quick
            version_reads_unknown_writer;
          Alcotest.test_case "aborted excluded" `Quick
            version_reads_aborted_excluded;
          Alcotest.test_case "fenced per shard" `Quick
            version_reads_fenced_per_shard;
        ] );
      ( "replay",
        [
          Alcotest.test_case "detects mismatch" `Quick replay_detects_mismatch;
          Alcotest.test_case "skips overwritten keys" `Quick
            replay_skips_overwritten_keys;
          Alcotest.test_case "uncommitted excluded" `Quick
            replay_uncommitted_excluded;
          Alcotest.test_case "missing key is zero" `Quick
            replay_missing_key_is_zero;
        ] );
      ( "serializability",
        [
          Alcotest.test_case "lost update" `Quick srz_lost_update;
          Alcotest.test_case "write skew" `Quick srz_write_skew;
          Alcotest.test_case "read-only anomaly" `Quick srz_read_only_anomaly;
          Alcotest.test_case "non-repeatable read" `Quick
            srz_non_repeatable_read;
          Alcotest.test_case "version-order cycle" `Quick
            srz_version_order_cycle;
          Alcotest.test_case "commuting writers unordered" `Quick
            srz_commuting_writers_not_ordered;
          Alcotest.test_case "clean history" `Quick srz_clean_history;
          Alcotest.test_case "unknown tag reported" `Quick
            srz_unknown_tag_reported;
          QCheck_alcotest.to_alcotest srz_anomalies_flagged;
        ] );
    ]
