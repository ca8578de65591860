(* Quickstart: the 3V algorithm in ~60 lines.

   Build a three-node distributed database, run one commuting update
   transaction that spans two nodes, observe that a concurrent read sees
   none of it (reads use the older version), advance the version, and watch
   the read version catch up — with the update then visible atomically.

   Run with:  dune exec examples/quickstart.exe *)

module Sim = Simul.Sim
module Ivar = Simul.Ivar
module Spec = Txn.Spec
module Op = Txn.Op
module Key = Store.Key
module Value = Txn.Value
module Engine = Threev.Engine

let () =
  (* The whole system is a deterministic simulation: a virtual clock plus
     green processes. Same seed, same run. *)
  let sim = Sim.create ~seed:42 () in
  let engine = Engine.create sim (Engine.default_config ~nodes:3) () in

  (* A "hospital visit": increment the patient's balance in radiology
     (node 0) and pediatrics (node 1). Increments commute, so this is a
     well-behaved update — no global coordination will happen. *)
  let visit =
    Spec.make ~id:1 ~label:"visit"
      (Spec.subtxn
         ~children:[ Spec.subtxn 1 [ Op.Incr (Key.intern "patient7@pediatrics", 120.) ] ]
         0
         [ Op.Incr (Key.intern "patient7@radiology", 80.) ])
  in
  let visit_result = Engine.submit engine visit in

  (* A concurrent balance inquiry, reading both departments. *)
  let inquiry keys id =
    Spec.make ~id ~label:(Printf.sprintf "inquiry%d" id)
      (Spec.subtxn
         ~children:[ Spec.subtxn 1 [ Op.Read (List.nth keys 1) ] ]
         0
         [ Op.Read (List.nth keys 0) ])
  in
  let keys = List.map Key.intern [ "patient7@radiology"; "patient7@pediatrics" ] in
  let early = Engine.submit engine (inquiry keys 2) in

  ignore (Sim.run sim ~until:1.0 ());
  let show label ivar =
    match Ivar.peek ivar with
    | Some res ->
        Printf.printf "%s (version %d):\n" label res.Txn.Result.version;
        List.iter
          (fun (key, (v : Value.t)) ->
            Printf.printf "  %-22s = %6.2f\n" (Key.name key) v.Value.amount)
          res.Txn.Result.reads
    | None -> Printf.printf "%s: still pending\n" label
  in
  assert (Ivar.is_full visit_result);
  show "inquiry before advancement" early;

  (* Advance the version: entirely asynchronous with user transactions —
     notify, wait for counter quiescence, switch reads, garbage-collect. *)
  let done_ = Engine.advance engine in
  ignore (Sim.run sim ~until:2.0 ());
  assert (Ivar.is_full done_);

  let late = Engine.submit engine (inquiry keys 3) in
  ignore (Sim.run sim ~until:3.0 ());
  show "inquiry after advancement" late;

  Printf.printf "read version is now %d; max simultaneous versions seen: %d\n"
    (Engine.read_version engine ~node:0)
    (Engine.max_versions_ever engine)
