(* From measurements to named metrics. The names and units here are the ones
   BENCHMARK.json lists; the run refuses to report if the two disagree. *)

type t = { name : string; unit_ : string; value : float; note : string }

let m ?(note = "") name unit_ value = { name; unit_; value; note }

(* The (name, unit) pairs a benchmark description declares under [key]
   ("end_to_end" or "per_layer"). *)
let declared spec key =
  List.map
    (fun x -> (Json.to_string (Json.member "name" x), Json.to_string (Json.member "unit" x)))
    (Json.to_list (Json.member key spec))

(* Differences between the metrics produced and those declared. *)
let mismatches declared produced =
  List.filter_map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) produced with
      | None -> Some (Printf.sprintf "metric %s is missing" name)
      | Some x when x.unit_ <> unit_ ->
          Some (Printf.sprintf "metric %s has unit %s, not %s" name x.unit_ unit_)
      | Some x when not (Float.is_finite x.value) ->
          Some (Printf.sprintf "metric %s is not a number" name)
      | Some _ -> None)
    declared
  @ List.filter_map
      (fun x ->
        if List.mem_assoc x.name declared then None
        else Some (Printf.sprintf "metric %s is not declared" x.name))
      produced

(* Interference the speedometer does not see only ever slows an interval
   down, so repeated times are summarised by their lower quartile and
   throughputs by their upper quartile (nearest rank), not by the median. *)
let lower_quartile xs = Probe.percentile xs 25
let upper_quartile xs = Probe.percentile xs 75
let drive_s (d : Probe.drive) = d.time.Speed.ref_s

let mb words = float_of_int words *. 8. /. 1e6
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let stat (d : Probe.drive) k = Option.value (List.assoc_opt k d.Probe.stats) ~default:0
let count n = Printf.sprintf "n=%d" n

(* [end_to_end ~reps ~checks]: [reps] are the untraced drives, each in a
   fresh child; the first one also ran [checks]. *)
let end_to_end ~(reps : Probe.drive list) ~(checks : Probe.checks) =
  let d = List.hd reps in
  let lat name (l : Probe.latency) v = m name "sim_ms" v ~note:(count l.Probe.count) in
  [
    m "setup_s" "s" (lower_quartile (List.map (fun (r : Probe.drive) -> r.setup_s) reps))
      ~note:(count (List.length reps));
    m "txns_per_s" "txn/s"
      (upper_quartile (List.map (fun (r : Probe.drive) -> float_of_int r.committed /. drive_s r) reps))
      ~note:(count (List.length reps));
    m "check_s" "s" (lower_quartile (List.map Probe.check_s checks.runs))
      ~note:(count (List.length checks.runs));
    m "drive_heap_mb" "MB" (mb d.heap_words);
    m "peak_heap_mb" "MB" (mb checks.peak_heap_words);
    lat "read_p50_ms" d.reads d.reads.p50_ms;
    lat "read_p99_ms" d.reads d.reads.p99_ms;
    lat "update_p50_ms" d.update_settle d.update_settle.p50_ms;
    lat "update_p99_ms" d.update_settle d.update_settle.p99_ms;
    lat "update_block_p999_ms" d.update_block d.update_block.p999_ms;
  ]

let per_layer ~(reps : Probe.drive list) ~(checks : Probe.checks)
    ~(traced : Probe.traced) =
  let d = List.hd reps in
  let time = lower_quartile (List.map drive_s reps) in
  let p = traced.stacks_profile in
  let share layer =
    m (layer ^ ".share") "ratio" (ratio (List.assoc layer p.by_layer) p.samples)
  in
  let advs = stat d "advancements" in
  let adv_ms = List.map (fun s -> 1000. *. s) d.adv_sim_s in
  let adv_note = count (List.length adv_ms) in
  let checker name f = m ("checker." ^ name) "s" (lower_quartile (List.map f checks.runs)) in
  let per_call s calls = if calls = 0 then 0. else 1e6 *. s /. float_of_int calls in
  [
    m "simul.events" "count" (float_of_int d.events);
    m "simul.events_per_s" "1/s" (float_of_int d.events /. time);
    share "simul";
    m "net.remote_msgs_per_txn" "msgs/txn" (ratio (stat d "net.remote_messages") d.submitted);
    m "net.coord_msgs_per_adv" "msgs/adv" (ratio traced.coord_msgs (advs * List.length traced.traced_s));
    m "net.retx_ratio" "ratio"
      (ratio (stat d "net.retransmissions") (stat d "net.remote_messages"));
    share "net";
    m "engine.submit_us" "us" (per_call traced.submit_s traced.submit_calls);
    share "engine";
    m "coord.advancements" "count" (float_of_int advs);
    m "coord.polls_per_adv" "polls/adv" (ratio (stat d "proto.polls") advs);
    m "coord.adv_sim_ms_p50" "sim_ms" (if adv_ms = [] then nan else Probe.percentile adv_ms 50) ~note:adv_note;
    m "coord.adv_sim_ms_max" "sim_ms" (List.fold_left Float.max 0. adv_ms) ~note:adv_note;
    m "coord.staleness_missed" "updates/read" checks.staleness_missed;
    share "coord";
    share "counters";
    m "store.copies_per_update" "copies/update" (ratio (stat d "store.copies_created") d.updates);
    m "store.dual_writes" "count" (float_of_int (stat d "store.dual_writes_total"));
    m "store.max_versions" "count" (float_of_int d.max_versions);
    share "store";
    share "txn";
    share "stats";
    share "fault";
    m "shard.vectored_reads" "count" (float_of_int (stat d "shard.vectored_reads"));
    m "shard.rvector_deferred" "count" (float_of_int (stat d "shard.rvector_deferred"));
    share "shard";
    m "repl.mirrors_per_update" "mirrors/update" (ratio (stat d "repl.mirrors") d.updates);
    m "repl.failovers" "count" (float_of_int (stat d "repl.failovers"));
    share "repl";
    m "fd.heartbeats_sent" "count" (float_of_int (stat d "fd.heartbeats_sent"));
    m "fd.suspicions" "count" (float_of_int (stat d "fd.suspicions"));
    m "fd.recoveries" "count" (float_of_int (stat d "fd.recoveries"));
    share "fd";
    m "workload.make_us" "us" (per_call traced.make_s traced.make_calls);
    share "workload";
    m "harness.history_mb" "MB" (mb checks.history_words);
    share "harness";
    checker "certify_s" (fun t -> t.Probe.certify_s);
    checker "atomicity_s" (fun t -> t.atomicity_s);
    checker "version_reads_s" (fun t -> t.version_reads_s);
    checker "staleness_s" (fun t -> t.staleness_s);
    m "checker.mvsg_edges_per_txn" "edges/txn" (ratio checks.mvsg_edges checks.mvsg_txns);
    m "checker.heap_mb" "MB" (mb (checks.peak_heap_words - d.heap_words));
    m "gc.minor_words_per_txn" "words/txn" (d.minor_words /. float_of_int d.submitted);
    m "gc.promoted_words_per_txn" "words/txn" (d.promoted_words /. float_of_int d.submitted);
    m "gc.major_collections" "count" (float_of_int d.major_collections);
    m "trace.samples" "count" (float_of_int p.samples);
    m "trace.overhead_frac" "ratio" ((lower_quartile traced.traced_s /. time) -. 1.);
    share "other";
  ]
