module Engine = Threev.Engine
module Srz = Checker.Serializability

type check = { check_name : string; ok : bool; detail : string }

type t = {
  serializability : Srz.report;
  atomicity : Checker.Atomicity.report;
  version_reads : Checker.Version_reads.report option;
  replay : Checker.Replay.report option;
  checks : check list;
}

let settled_lookup ~nodes store key =
  let rec scan node =
    if node < 0 then None
    else
      match Store.Mvstore.read_visible (store ~node) ~key ~version:max_int with
      | Some (_, v) -> Some v
      | None -> scan (node - 1)
  in
  scan (nodes - 1)

let check check_name ok pp report =
  { check_name; ok; detail = Format.asprintf "%a" pp report }

let run ?engine ?unfinished history =
  let shard_of_node =
    Option.map (fun e n -> Engine.shard_of_node e ~node:n) engine
  in
  let srz = Srz.certify ?shard_of_node history in
  let atomicity = Checker.Atomicity.check history in
  let version_reads =
    Option.map
      (fun e ->
        Checker.Version_reads.check
          ~vector:(fun txn -> Engine.assigned_vector e ~txn)
          ?shard_of_node history)
      engine
  in
  let replay =
    Option.map
      (fun e ->
        let nodes = Repl.Placement.nodes (Engine.placement e) in
        Checker.Replay.check history
          ~lookup:(settled_lookup ~nodes (Engine.store e)))
      engine
  in
  let opt f = Option.fold ~none:[] ~some:(fun r -> [ f r ]) in
  let checks =
    [
      check "serializability"
        (Srz.serializable srz && srz.Srz.unknown_count = 0)
        Srz.pp srz;
      check "atomicity"
        (Checker.Atomicity.clean atomicity)
        Checker.Atomicity.pp atomicity;
    ]
    @ opt
        (fun r ->
          check "version-reads" (Checker.Version_reads.clean r)
            Checker.Version_reads.pp r)
        version_reads
    @ opt
        (fun r -> check "replay" (Checker.Replay.clean r) Checker.Replay.pp r)
        replay
    @ opt
        (fun n ->
          {
            check_name = "settled";
            ok = n = 0;
            detail =
              Printf.sprintf "unfinished=%d of %d submitted" n
                (List.length history + n);
          })
        unfinished
  in
  { serializability = srz; atomicity; version_reads; replay; checks }

let clean r = List.for_all (fun c -> c.ok) r.checks
