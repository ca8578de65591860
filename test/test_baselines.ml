(* Tests for the three §1 baseline engines. *)

module Sim = Simul.Sim
module Ivar = Simul.Ivar
module Latency = Netsim.Latency
module Mvstore = Store.Mvstore
module Spec = Txn.Spec
module Op = Txn.Op
module Key = Store.Key
module Value = Txn.Value
module Result = Txn.Result
module Global_2pc = Baselines.Global_2pc
module Manual = Baselines.Manual_versioning

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

let cross_update ~id a b =
  Spec.make ~id
    (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Incr (Key.intern b, 1.) ] ] 0
       [ Op.Incr (Key.intern a, 1.) ])

let cross_read ~id a b =
  Spec.make ~id
    (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Read (Key.intern b) ] ] 0
       [ Op.Read (Key.intern a) ])

(* ------------------------------------------------------- global 2pc *)

let twopc_commit_and_apply () =
  let sim = Sim.create () in
  let eng = Global_2pc.create sim (Global_2pc.default_config ~nodes:2) in
  let r = Global_2pc.submit eng (cross_update ~id:1 "a" "b") in
  ignore (Sim.run sim ~until:2.0 ());
  checkb "committed" true
    (match Ivar.peek r with Some res -> Result.committed res | None -> false);
  let amt node key =
    match Mvstore.read_visible (Global_2pc.store eng ~node) ~key:(Key.intern key) ~version:0 with
    | Some (_, v) -> v.Value.amount
    | None -> 0.
  in
  checkf "a applied" 1. (amt 0 "a");
  checkf "b applied" 1. (amt 1 "b")

let twopc_read_blocks_behind_writer () =
  (* A read arriving while an update holds X locks across a slow 2PC must
     wait — the §1 cost of global synchronization. *)
  let sim = Sim.create () in
  let cfg =
    {
      (Global_2pc.default_config ~nodes:2) with
      Global_2pc.latency = Latency.Constant 0.5 (* slow decision round *);
      deadlock_timeout = infinity;
    }
  in
  let eng = Global_2pc.create sim cfg in
  let ru = Global_2pc.submit eng (cross_update ~id:1 "a" "b") in
  Sim.schedule sim ~delay:0.1 (fun () ->
      ignore (Global_2pc.submit eng (cross_read ~id:2 "a" "b")));
  let rr = ref None in
  Sim.schedule sim ~delay:0.1 (fun () ->
      rr := Some (Global_2pc.submit eng (cross_read ~id:3 "b" "a")));
  ignore (Sim.run sim ~until:20.0 ());
  (match Ivar.peek ru with
  | Some res -> checkb "update committed" true (Result.committed res)
  | None -> Alcotest.fail "update unresolved");
  match !rr with
  | Some iv -> (
      match Ivar.peek iv with
      | Some res ->
          (* The read of b at node 1 had to wait for the update's decision
             to reach node 1 (root at 0 commits at ~1.0, decision reaches
             node 1 at ~1.5). *)
          checkb "read waited for the writer's 2PC" true
            (Result.latency res > 0.5)
      | None -> Alcotest.fail "read unresolved")
  | None -> Alcotest.fail "read not submitted"

let twopc_deadlock_resolved () =
  let sim = Sim.create () in
  let cfg =
    { (Global_2pc.default_config ~nodes:2) with Global_2pc.deadlock_timeout = 0.1 }
  in
  let eng = Global_2pc.create sim cfg in
  (* Symmetric cross-node updates in opposite key order force a distributed
     deadlock; the timeout must abort at least one and the system drains. *)
  let mk id root_node other_node k1 k2 =
    Spec.make ~id
      (Spec.subtxn
         ~children:[ Spec.subtxn other_node [ Op.Incr (Key.intern k2, 1.) ] ]
         root_node
         [ Op.Incr (Key.intern k1, 1.) ])
  in
  let r1 = Global_2pc.submit eng (mk 1 0 1 "x" "y") in
  let r2 = Global_2pc.submit eng (mk 2 1 0 "y" "x") in
  ignore (Sim.run sim ~until:10.0 ());
  checkb "both resolved" true (Ivar.is_full r1 && Ivar.is_full r2);
  let aborted =
    List.length
      (List.filter
         (fun iv ->
           match Ivar.peek iv with
           | Some res -> not (Result.committed res)
           | None -> false)
         [ r1; r2 ])
  in
  (* Symmetric timeouts may abort both; the essential property is that the
     deadlock broke and every lock was released (the run drained). *)
  checkb "at least one victim" true (aborted >= 1);
  let amt node key =
    match Mvstore.read_visible (Global_2pc.store eng ~node) ~key:(Key.intern key) ~version:0 with
    | Some (_, v) -> v.Value.amount
    | None -> 0.
  in
  let committed = 2 - aborted in
  checkf "x consistent with commits" (float_of_int committed) (amt 0 "x");
  checkf "y consistent with commits" (float_of_int committed) (amt 1 "y")

let twopc_aborted_writes_invisible () =
  let sim = Sim.create () in
  let cfg =
    { (Global_2pc.default_config ~nodes:2) with Global_2pc.deadlock_timeout = 0.05 }
  in
  let eng = Global_2pc.create sim cfg in
  let r1 = Global_2pc.submit eng (cross_update ~id:1 "x" "y") in
  let r2 =
    Global_2pc.submit eng
      (Spec.make ~id:2
         (Spec.subtxn ~children:[ Spec.subtxn 0 [ Op.Incr (Key.intern "x", 1.) ] ] 1
            [ Op.Incr (Key.intern "y", 1.) ]))
  in
  ignore (Sim.run sim ~until:10.0 ());
  let committed =
    List.length
      (List.filter
         (fun iv ->
           match Ivar.peek iv with
           | Some res -> Result.committed res
           | None -> false)
         [ r1; r2 ])
  in
  let amt node key =
    match Mvstore.read_visible (Global_2pc.store eng ~node) ~key:(Key.intern key) ~version:0 with
    | Some (_, v) -> v.Value.amount
    | None -> 0.
  in
  (* Each committed transaction adds exactly 1 to both keys; aborted ones
     add nothing. *)
  checkf "x total matches commits" (float_of_int committed) (amt 0 "x");
  checkf "y total matches commits" (float_of_int committed) (amt 1 "y")

(* ---------------------------------------------------- no coordination *)

(* No coordination is manual versioning's unversioned schedule. *)
let nocoord_config ~nodes =
  { (Manual.default_config ~nodes) with Manual.schedule = Unversioned }

let nocoord_commits_everything () =
  let sim = Sim.create () in
  let eng = Manual.create sim (nocoord_config ~nodes:2) in
  let rs =
    List.init 10 (fun i -> Manual.submit eng (cross_update ~id:(i + 1) "a" "b"))
  in
  ignore (Sim.run sim ~until:5.0 ());
  checkb "all committed" true
    (List.for_all
       (fun iv ->
         match Ivar.peek iv with Some res -> Result.committed res | None -> false)
       rs);
  let amt node key =
    match Mvstore.read_visible (Manual.store eng ~node) ~key:(Key.intern key) ~version:0 with
    | Some (_, v) -> v.Value.amount
    | None -> 0.
  in
  checkf "a" 10. (amt 0 "a");
  checkf "b" 10. (amt 1 "b")

let nocoord_partial_read_demonstrated () =
  (* Deterministic §1 anomaly: the update's child to node 1 is slow; a read
     fired right after the root write sees a at node 0 but not b at node 1. *)
  let sim = Sim.create () in
  let cfg =
    { (nocoord_config ~nodes:2) with Manual.latency = Latency.Constant 1.0 }
  in
  let eng = Manual.create sim cfg in
  let upd = cross_update ~id:1 "a" "b" in
  (* The read starts at node 1 (reading b before the update's child lands
     there) and then visits node 0 (reading a after the root write). *)
  let rd =
    Spec.make ~id:2
      (Spec.subtxn ~children:[ Spec.subtxn 0 [ Op.Read (Key.intern "a") ] ] 1
         [ Op.Read (Key.intern "b") ])
  in
  ignore (Manual.submit eng upd);
  let r = ref None in
  Sim.schedule sim ~delay:0.01 (fun () -> r := Some (Manual.submit eng rd));
  ignore (Sim.run sim ~until:10.0 ());
  let res =
    match !r with
    | Some iv -> (
        match Ivar.peek iv with Some res -> res | None -> Alcotest.fail "read pending")
    | None -> Alcotest.fail "not submitted"
  in
  let history = [ (upd, { res with Result.txn_id = 1; outcome = Result.Committed }) ] in
  ignore history;
  let saw key =
    Value.Writers.mem 1 (List.assoc (Key.intern key) res.Result.reads).Value.writers
  in
  checkb "saw the root write" true (saw "a");
  checkb "missed the remote write" false (saw "b")

(* -------------------------------------------------- manual versioning *)

let manual_version_arithmetic () =
  let sim = Sim.create () in
  let cfg =
    {
      (Manual.default_config ~nodes:2) with
      Manual.schedule = Periodic { period = 1.0; safety_delay = 0.25 };
    }
  in
  let eng = Manual.create sim cfg in
  (* Period 0 closes at t=1.0 and becomes readable at t=1.25. *)
  checki "before anything is readable" 0 (Manual.read_version_at eng ~now:0.5);
  checki "period closed but delay pending" 0 (Manual.read_version_at eng ~now:1.1);
  checki "readable" 1 (Manual.read_version_at eng ~now:1.3);
  checki "next period" 2 (Manual.read_version_at eng ~now:2.5)

let manual_reads_lag_a_period () =
  let sim = Sim.create () in
  let cfg =
    {
      (Manual.default_config ~nodes:2) with
      Manual.schedule = Periodic { period = 1.0; safety_delay = 0.2 };
    }
  in
  let eng = Manual.create sim cfg in
  (* Update in period 0. *)
  ignore (Manual.submit eng (cross_update ~id:1 "a" "b"));
  (* A read in period 0 sees nothing. *)
  let r_early = ref None in
  Sim.schedule sim ~delay:0.5 (fun () ->
      r_early := Some (Manual.submit eng (cross_read ~id:2 "a" "b")));
  (* A read after 1.2+ sees the period-0 update. *)
  let r_late = ref None in
  Sim.schedule sim ~delay:1.5 (fun () ->
      r_late := Some (Manual.submit eng (cross_read ~id:3 "a" "b")));
  ignore (Sim.run sim ~until:10.0 ());
  let amount r key =
    match !r with
    | Some iv -> (
        match Ivar.peek iv with
        | Some res -> (List.assoc (Key.intern key) res.Result.reads).Value.amount
        | None -> Alcotest.fail "read pending")
    | None -> Alcotest.fail "not submitted"
  in
  checkf "early read blind" 0. (amount r_early "a");
  checkf "late read sees period 0" 1. (amount r_late "a");
  checkf "late read sees remote too" 1. (amount r_late "b")

let manual_straggler_partial_read () =
  (* With safety delay 0 and a slow child, a boundary read observes the
     §1 incorrectness; with a conservative delay it does not. *)
  let run_with ~safety_delay =
    let sim = Sim.create () in
    let cfg =
      {
        (Manual.default_config ~nodes:2) with
        Manual.schedule = Periodic { period = 1.0; safety_delay };
        latency = Latency.Constant 0.4 (* child lands 0.4s into next period *);
      }
    in
    let eng = Manual.create sim cfg in
    let upd = cross_update ~id:1 "a" "b" in
    (* The read visits node 1 first so it reads b before the straggler's
       write lands, and node 0 second (after the root write). *)
    let rd =
      Spec.make ~id:2
        (Spec.subtxn ~children:[ Spec.subtxn 0 [ Op.Read (Key.intern "a") ] ] 1
           [ Op.Read (Key.intern "b") ])
    in
    (* Update submitted just before the period-0 boundary. *)
    let r = ref None in
    Sim.schedule sim ~delay:0.9 (fun () -> ignore (Manual.submit eng upd));
    Sim.schedule sim ~delay:1.05 (fun () -> r := Some (Manual.submit eng rd));
    ignore (Sim.run sim ~until:10.0 ());
    let res =
      match !r with
      | Some iv -> (
          match Ivar.peek iv with Some res -> res | None -> Alcotest.fail "pending")
      | None -> Alcotest.fail "not submitted"
    in
    let saw key =
      Value.Writers.mem 1 (List.assoc (Key.intern key) res.Result.reads).Value.writers
    in
    (saw "a", saw "b")
  in
  (* Reckless: the read uses version 1 at t=1.05 while b's write lands at
     ~1.3 — partial. *)
  checkb "delay 0 shows partial charge" true (run_with ~safety_delay:0. = (true, false));
  (* Conservative: reads stay on version 0 until 1.5; the same read sees
     nothing of the update — all-or-nothing restored. *)
  checkb "conservative delay is atomic" true
    (run_with ~safety_delay:0.5 = (false, false))

let engine_names () =
  let sim = Sim.create () in
  Alcotest.(check string) "2pc" "global-2pc"
    (Global_2pc.name (Global_2pc.create sim (Global_2pc.default_config ~nodes:1)));
  Alcotest.(check string) "nocoord" "no-coordination"
    (Manual.name (Manual.create sim (nocoord_config ~nodes:1)));
  Alcotest.(check string) "manual" "manual-versioning"
    (Manual.name (Manual.create sim (Manual.default_config ~nodes:1)))

let () =
  Alcotest.run "baselines"
    [
      ( "global-2pc",
        [
          Alcotest.test_case "commit applies" `Quick twopc_commit_and_apply;
          Alcotest.test_case "read blocks behind writer" `Quick
            twopc_read_blocks_behind_writer;
          Alcotest.test_case "deadlock resolved" `Quick twopc_deadlock_resolved;
          Alcotest.test_case "aborted writes invisible" `Quick
            twopc_aborted_writes_invisible;
        ] );
      ( "no-coordination",
        [
          Alcotest.test_case "commits everything" `Quick
            nocoord_commits_everything;
          Alcotest.test_case "partial read demonstrated" `Quick
            nocoord_partial_read_demonstrated;
        ] );
      ( "manual-versioning",
        [
          Alcotest.test_case "version arithmetic" `Quick
            manual_version_arithmetic;
          Alcotest.test_case "reads lag a period" `Quick manual_reads_lag_a_period;
          Alcotest.test_case "straggler partial read" `Quick
            manual_straggler_partial_read;
        ] );
      ("misc", [ Alcotest.test_case "engine names" `Quick engine_names ]);
    ]
