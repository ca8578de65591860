(* Bounded exhaustive interleaving exploration of the 3V protocol.

   The explorer re-runs a fixed scenario under EVERY assignment of delivery
   delays (slow / medium / fast) to its first K messages — subtransactions,
   completion notices, and advancement traffic alike — and asserts the
   paper's guarantees on each schedule:

   - the run terminates (no stall, advancement completes),
   - every transaction commits,
   - reads are atomically visible and version-exact,
   - no item ever holds more than three versions,
   - the quiescence oracle never fires (debug_checks is armed inside the
     engine, so an unsound phase-2/4 declaration raises and surfaces as an
     explorer failure with the offending schedule). *)

module Sim = Simul.Sim
module Ivar = Simul.Ivar
module Latency = Netsim.Latency
module Spec = Txn.Spec
module Op = Txn.Op
module Result = Txn.Result
module Engine = Threev.Engine
module Explorer = Mcheck.Explorer

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------ explorer self-tests *)

let explorer_counts_static_tree () =
  let visits = ref 0 in
  let outcome =
    Explorer.explore (fun ctl ->
        incr visits;
        ignore (Explorer.choose ctl 2);
        ignore (Explorer.choose ctl 2);
        ignore (Explorer.choose ctl 2))
  in
  checki "2^3 runs" 8 outcome.Explorer.runs;
  checki "visits" 8 !visits;
  checkb "exhausted" true outcome.Explorer.exhausted

let explorer_dynamic_arity () =
  (* First choice binary; only branch 0 has a second, ternary choice. *)
  let leaves = ref [] in
  let outcome =
    Explorer.explore (fun ctl ->
        match Explorer.choose ctl 2 with
        | 0 -> leaves := (0, Explorer.choose ctl 3) :: !leaves
        | c -> leaves := (c, -1) :: !leaves)
  in
  checki "3 + 1 leaves" 4 outcome.Explorer.runs;
  checkb "all leaves distinct" true
    (List.sort_uniq compare !leaves = List.sort compare !leaves)

let explorer_reports_failure_path () =
  let outcome =
    Explorer.explore (fun ctl ->
        let a = Explorer.choose ctl 2 in
        let b = Explorer.choose ctl 2 in
        if a = 1 && b = 0 then failwith "boom")
  in
  (match outcome.Explorer.failure with
  | Some (path, Failure msg) ->
      checkb "path and message" true (path = [ 1; 0 ] && msg = "boom")
  | _ -> Alcotest.fail "expected failure at [1;0]");
  (* The failing path must replay to the same failure. *)
  match Explorer.replay (fun ctl ->
            let a = Explorer.choose ctl 2 in
            let b = Explorer.choose ctl 2 in
            if a = 1 && b = 0 then failwith "boom") [ 1; 0 ]
  with
  | () -> Alcotest.fail "replay should raise"
  | exception Failure msg -> checkb "replayed" true (msg = "boom")

let explorer_max_runs_cap () =
  let outcome =
    Explorer.explore ~max_runs:5 (fun ctl ->
        ignore (Explorer.choose ctl 2);
        ignore (Explorer.choose ctl 2);
        ignore (Explorer.choose ctl 2);
        ignore (Explorer.choose ctl 2))
  in
  checki "capped" 5 outcome.Explorer.runs;
  checkb "not exhausted" false outcome.Explorer.exhausted

(* ------------------------------------------------ protocol exploration *)

(* Every schedule's history must pass Harness.Certify: 1SR, atomic
   visibility, exact version reads and replay of the settled stores. *)
let certify ~engine history =
  List.iter
    (fun (c : Harness.Certify.check) ->
      if not c.Harness.Certify.ok then
        failwith
          (c.Harness.Certify.check_name ^ " violated: "
         ^ c.Harness.Certify.detail))
    (Harness.Certify.run ~engine history).Harness.Certify.checks

(* One self-contained 3V scenario: two nodes; update i spans both; an
   advancement races it; update j lands on the new version and spans both
   in the opposite direction; reads bracket everything. The first
   [choice_budget] messages each draw a delay from [delay_options]. *)
let threev_scenario ~choice_budget ctl =
  let delay_options = [ 0.001; 0.05; 0.9 ] in
  let choices_left = ref choice_budget in
  let link_latency ~src:_ ~dst:_ =
    if !choices_left > 0 then begin
      decr choices_left;
      Some (Latency.Constant (Explorer.choose_among ctl delay_options))
    end
    else Some (Latency.Constant 0.005)
  in
  let sim = Sim.create ~seed:1 () in
  let cfg =
    {
      (Engine.default_config ~nodes:2) with
      Engine.think_time = 0.002;
      poll_interval = 0.02;
      debug_checks = true;
    }
  in
  let engine = Engine.create sim cfg ~link_latency () in
  let submitted = ref [] in
  let submit spec = submitted := (spec, Engine.submit engine spec) :: !submitted in
  let adv = ref None in
  Sim.spawn sim ~name:"script" (fun () ->
      submit
        (Spec.make ~id:1 ~label:"i"
           (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Incr ("d", 3.) ] ] 0
              [ Op.Incr ("a", 1.) ]));
      Sim.sleep sim 0.01;
      submit (Spec.make ~id:2 ~label:"x" (Spec.subtxn 0 [ Op.Read "a" ]));
      Sim.sleep sim 0.01;
      adv := Some (Engine.advance engine);
      Sim.sleep sim 0.01;
      submit
        (Spec.make ~id:3 ~label:"j"
           (Spec.subtxn ~children:[ Spec.subtxn 0 [ Op.Incr ("a", 5.) ] ] 1
              [ Op.Incr ("d", 7.) ]));
      Sim.sleep sim 0.02;
      submit
        (Spec.make ~id:4 ~label:"y"
           (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Read "d" ] ] 0
              [ Op.Read "a" ])));
  (match Sim.run sim ~until:60.0 () with
  | Sim.Completed | Sim.Hit_limit -> ()
  | Sim.Stalled names ->
      failwith ("stalled: " ^ String.concat "," names));
  (* Terminate: advancement must have completed. *)
  (match !adv with
  | Some iv when Ivar.is_full iv -> ()
  | _ -> failwith "advancement did not complete");
  (* Every transaction must resolve and commit. *)
  let history =
    List.map
      (fun (spec, iv) ->
        match Ivar.peek iv with
        | Some res ->
            if not (Result.committed res) then
              failwith (spec.Spec.label ^ " did not commit");
            (spec, res)
        | None -> failwith (spec.Spec.label ^ " unresolved"))
      !submitted
  in
  certify ~engine history;
  if Engine.max_versions_ever engine > 3 then failwith "version bound broken";
  if List.length (Engine.version_window engine) > 3 then
    failwith "version window broken"

let protocol_exploration () =
  let outcome =
    Explorer.explore ~max_runs:20_000 (threev_scenario ~choice_budget:8)
  in
  (match outcome.Explorer.failure with
  | Some (path, exn) ->
      Alcotest.failf "schedule %s violates the protocol: %s"
        (String.concat "," (List.map string_of_int path))
        (Printexc.to_string exn)
  | None -> ());
  checkb "tree exhausted" true outcome.Explorer.exhausted;
  checkb "thousands of schedules" true (outcome.Explorer.runs >= 6561)

(* Same exploration with an NC transaction in the mix. *)
let nc_scenario ~choice_budget ctl =
  let delay_options = [ 0.001; 0.3 ] in
  let choices_left = ref choice_budget in
  let link_latency ~src:_ ~dst:_ =
    if !choices_left > 0 then begin
      decr choices_left;
      Some (Latency.Constant (Explorer.choose_among ctl delay_options))
    end
    else Some (Latency.Constant 0.005)
  in
  let sim = Sim.create ~seed:1 () in
  let cfg =
    {
      (Engine.default_config ~nodes:2) with
      Engine.think_time = 0.002;
      poll_interval = 0.02;
      nc_mode = true;
      deadlock_timeout = 0.2;
    }
  in
  let engine = Engine.create sim cfg ~link_latency () in
  let submitted = ref [] in
  let submit spec = submitted := (spec, Engine.submit engine spec) :: !submitted in
  let adv = ref None in
  Sim.spawn sim ~name:"script" (fun () ->
      submit
        (Spec.make ~id:1 ~label:"sale"
           (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Incr ("inv", -1.) ] ] 0
              [ Op.Incr ("sold", 1.) ]));
      Sim.sleep sim 0.01;
      adv := Some (Engine.advance engine);
      Sim.sleep sim 0.01;
      submit
        (Spec.make ~id:2 ~label:"reprice"
           (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Overwrite ("price", 9.) ] ]
              0
              [ Op.Overwrite ("price0", 9.) ]));
      Sim.sleep sim 0.02;
      submit
        (Spec.make ~id:3 ~label:"report"
           (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Read "inv" ] ] 0
              [ Op.Read "sold" ])));
  (match Sim.run sim ~until:60.0 () with
  | Sim.Completed | Sim.Hit_limit -> ()
  | Sim.Stalled names -> failwith ("stalled: " ^ String.concat "," names));
  (match !adv with
  | Some iv when Ivar.is_full iv -> ()
  | _ -> failwith "advancement did not complete");
  let history =
    List.map
      (fun (spec, iv) ->
        match Ivar.peek iv with
        | Some res -> (spec, res)
        | None -> failwith (spec.Spec.label ^ " unresolved"))
      !submitted
  in
  (* Commuting transactions and reads must commit; the NC transaction may
     abort (version overtake) but must never leave partial effects. *)
  List.iter
    (fun ((spec : Spec.t), res) ->
      if spec.Spec.kind <> Spec.Non_commuting && not (Result.committed res)
      then failwith (spec.Spec.label ^ " did not commit"))
    history;
  certify ~engine history

let nc_exploration () =
  let outcome =
    Explorer.explore ~max_runs:20_000 (nc_scenario ~choice_budget:12)
  in
  (match outcome.Explorer.failure with
  | Some (path, exn) ->
      Alcotest.failf "schedule %s violates NC3V: %s"
        (String.concat "," (List.map string_of_int path))
        (Printexc.to_string exn)
  | None -> ());
  checkb "tree exhausted" true outcome.Explorer.exhausted

(* Compensation under all schedules: with abort_probability = 1 every
   commuting transaction compensates (§3.2); termination detection must
   still complete the racing advancement on every schedule, and the
   settled amounts must net to zero. *)
let compensation_scenario ~choice_budget ctl =
  let delay_options = [ 0.001; 0.4 ] in
  let choices_left = ref choice_budget in
  let link_latency ~src:_ ~dst:_ =
    if !choices_left > 0 then begin
      decr choices_left;
      Some (Latency.Constant (Explorer.choose_among ctl delay_options))
    end
    else Some (Latency.Constant 0.005)
  in
  let sim = Sim.create ~seed:1 () in
  let cfg =
    {
      (Engine.default_config ~nodes:2) with
      Engine.think_time = 0.002;
      poll_interval = 0.02;
      abort_probability = 1.0;
    }
  in
  let engine = Engine.create sim cfg ~link_latency () in
  let result = ref None and adv = ref None in
  Sim.spawn sim ~name:"script" (fun () ->
      result :=
        Some
          (Engine.submit engine
             (Spec.make ~id:1 ~label:"t"
                (Spec.subtxn
                   ~children:[ Spec.subtxn 1 [ Op.Incr ("b", 5.) ] ]
                   0
                   [ Op.Incr ("a", 3.) ])));
      Sim.sleep sim 0.01;
      adv := Some (Engine.advance engine));
  (match Sim.run sim ~until:60.0 () with
  | Sim.Completed | Sim.Hit_limit -> ()
  | Sim.Stalled names -> failwith ("stalled: " ^ String.concat "," names));
  (match !adv with
  | Some iv when Ivar.is_full iv -> ()
  | _ -> failwith "advancement did not terminate despite compensation");
  (match !result with
  | Some iv -> (
      match Ivar.peek iv with
      | Some res when res.Result.outcome = Result.Aborted "compensated" -> ()
      | Some _ -> failwith "transaction should have compensated"
      | None -> failwith "transaction unresolved")
  | None -> failwith "not submitted");
  let amount node key =
    match
      Store.Mvstore.read_visible (Engine.store engine ~node) ~key
        ~version:max_int
    with
    | Some (_, v) -> v.Txn.Value.amount
    | None -> 0.
  in
  if amount 0 "a" <> 0. || amount 1 "b" <> 0. then
    failwith "compensation did not net to zero"

let compensation_exploration () =
  let outcome =
    Explorer.explore ~max_runs:20_000 (compensation_scenario ~choice_budget:10)
  in
  (match outcome.Explorer.failure with
  | Some (path, exn) ->
      Alcotest.failf "schedule %s breaks compensation: %s"
        (String.concat "," (List.map string_of_int path))
        (Printexc.to_string exn)
  | None -> ());
  checkb "tree exhausted" true outcome.Explorer.exhausted

(* Full-engine determinism: the same seed must reproduce a run exactly —
   the property the whole replayable test suite rests on. *)
let engine_determinism () =
  let fingerprint seed =
    let sim = Sim.create ~seed () in
    let cfg =
      {
        (Engine.default_config ~nodes:3) with
        Engine.latency = Latency.Exponential 0.01;
        policy = Threev.Policy.Periodic 0.1;
        abort_probability = 0.2;
      }
    in
    let engine = Engine.create sim cfg () in
    let rng = Random.State.make [| seed |] in
    Sim.spawn sim (fun () ->
        for i = 1 to 100 do
          let n1 = Random.State.int rng 3 and n2 = Random.State.int rng 3 in
          ignore
            (Engine.submit engine
               (Spec.make ~id:i
                  (Spec.subtxn
                     ~children:
                       [ Spec.subtxn n2 [ Op.Incr (Printf.sprintf "k@%d" n2, 1.) ] ]
                     n1
                     [ Op.Incr (Printf.sprintf "k@%d" n1, 1.) ])));
          Sim.sleep sim 0.005
        done);
    ignore (Sim.run sim ~until:5.0 ());
    ( Sim.events_executed sim,
      Stats.Counter_set.to_list (Engine.stats engine),
      Engine.advancements_completed engine )
  in
  checkb "same seed, same run" true (fingerprint 5 = fingerprint 5);
  checkb "different seed, different run" true (fingerprint 5 <> fingerprint 6)

let () =
  Alcotest.run "mcheck"
    [
      ( "explorer",
        [
          Alcotest.test_case "static tree" `Quick explorer_counts_static_tree;
          Alcotest.test_case "dynamic arity" `Quick explorer_dynamic_arity;
          Alcotest.test_case "failure path" `Quick explorer_reports_failure_path;
          Alcotest.test_case "max runs cap" `Quick explorer_max_runs_cap;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "3v invariants over all schedules" `Slow
            protocol_exploration;
          Alcotest.test_case "nc3v invariants over all schedules" `Slow
            nc_exploration;
          Alcotest.test_case "compensation over all schedules" `Slow
            compensation_exploration;
          Alcotest.test_case "engine determinism" `Quick engine_determinism;
        ] );
    ]
