(* One measured drive of a workload, run inside the current process. The
   benchmark times its own calls into each layer's public functions and
   reads the program's existing counters; nothing inside lib/ is
   instrumented. Every time is taken under {!Speed.measure}. *)

module Sim = Simul.Sim
module Engine = Threev.Engine
module Runner = Harness.Runner
module Spec = Txn.Spec
module Result = Txn.Result

(* [nearest_rank sorted q] is the exact nearest-rank quantile of a non-empty
   ascending array at [q] per mille (integer [q] in 1..1000): the smallest
   value with at least [q]/1000 of the samples at or below it. *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "nearest_rank: no samples";
  if q < 1 || q > 1000 then invalid_arg "nearest_rank: q outside 1..1000";
  sorted.((((q * n) + 999) / 1000) - 1)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The [p]th percentile, integer [p] in 1..100. *)
let percentile xs p = nearest_rank (sorted xs) (10 * p)

type latency = { p50_ms : float; p99_ms : float; p999_ms : float; count : int }

let latency samples =
  match sorted samples with
  | [||] -> { p50_ms = nan; p99_ms = nan; p999_ms = nan; count = 0 }
  | a ->
      let ms q = 1000. *. nearest_rank a q in
      { p50_ms = ms 500; p99_ms = ms 990; p999_ms = ms 999; count = Array.length a }

(* FNV-1a over each transaction's id, outcome, version, submit and complete
   times, in history order. *)
let digest history =
  let prime = 0x100000001b3 in
  let mix h x = (h lxor x) * prime in
  let mixf h f = mix h (Int64.to_int (Int64.bits_of_float f)) in
  List.fold_left
    (fun h ((spec : Spec.t), (r : Result.t)) ->
      let h = mix h spec.Spec.id in
      let h = mix h (if Result.committed r then 1 else 0) in
      let h = mix h r.Result.version in
      mixf (mixf h r.Result.submit_time) r.Result.complete_time)
    0x811c9dc5 history

type drive = {
  setup_s : float;  (** reference seconds to build the instance *)
  time : Speed.reading;  (** of [Runner.drive] *)
  digest : int;
  submitted : int;
  committed : int;
  updates : int;  (** committed update transactions *)
  failed : int;  (** aborted + unfinished *)
  events : int;
  stats : (string * int) list;
  max_versions : int;
  adv_sim_s : float list;  (** shard 0's advancement durations, log order *)
  reads : latency;  (** [complete - submit] over committed reads *)
  update_settle : latency;  (** [complete - submit] over committed updates *)
  update_block : latency;  (** [root_commit - submit] over committed updates *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  heap_words : int;  (** [top_heap_words] after the drive *)
}

(* Advancement durations from a coordinator log: from each advancement's
   first phase record to its commit record. *)
let advancement_spans log =
  let starts = Hashtbl.create 64 in
  List.filter_map
    (function
      | Threev.Coord_log.Phase { adv; time; _ } ->
          if not (Hashtbl.mem starts adv) then Hashtbl.add starts adv time;
          None
      | Threev.Coord_log.Committed { adv; time } ->
          Option.map (fun t0 -> time -. t0) (Hashtbl.find_opt starts adv)
      | Threev.Coord_log.Started _ -> None)
    (Threev.Coord_log.records log)

let summarise (inst : Workloads.instance) (outcome : Runner.outcome) ~setup_s time gc0 gc1 =
  let reads = ref [] and settle = ref [] and block = ref [] in
  List.iter
    (fun ((spec : Spec.t), r) ->
      if Result.committed r then
        match spec.Spec.kind with
        | Spec.Read_only -> reads := Result.latency r :: !reads
        | Spec.Commuting | Spec.Non_commuting ->
            settle := Result.latency r :: !settle;
            block := Result.blocking_latency r :: !block)
    outcome.Runner.history;
  {
    setup_s;
    time;
    digest = digest outcome.Runner.history;
    submitted = outcome.Runner.submitted;
    committed = outcome.Runner.committed;
    updates = List.length !settle;
    failed = outcome.Runner.aborted + outcome.Runner.unfinished;
    events = Sim.events_executed inst.sim;
    stats = Stats.Counter_set.to_list outcome.Runner.stats;
    max_versions = Engine.max_versions_ever inst.engine;
    adv_sim_s = advancement_spans (Engine.coord_log inst.engine);
    reads = latency !reads;
    update_settle = latency !settle;
    update_block = latency !block;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    heap_words = gc1.Gc.top_heap_words;
  }

(* [drive build] times [build] (the set-up: simulation, fault injector,
   engine and generator) and then the drive of the instance it builds. *)
let drive build =
  let (inst : Workloads.instance), setup = Speed.measure build in
  let gc0 = Gc.quick_stat () in
  let outcome, time =
    Speed.measure (fun () ->
        Runner.drive inst.sim (Engine.packed inst.engine) inst.gen inst.setup)
  in
  let d = summarise inst outcome ~setup_s:setup.Speed.ref_s time gc0 (Gc.quick_stat ()) in
  (d, inst, outcome)

type check_times = {
  certify_s : float;  (** reference seconds, as are the three below *)
  atomicity_s : float;
  version_reads_s : float;
  staleness_s : float;
}

let check_s t = t.certify_s +. t.atomicity_s +. t.version_reads_s +. t.staleness_s

type checks = {
  runs : check_times list;  (** one per run of the suite *)
  problems : string list;  (** empty when every checker is clean *)
  mvsg_edges : int;
  mvsg_txns : int;
  staleness_missed : float;
  history_words : int;  (** [Obj.reachable_words] of the history *)
  peak_heap_words : int;  (** [top_heap_words] after the first run *)
}

let timed f =
  let r, t = Speed.measure f in
  (r, t.Speed.ref_s)

(* The four checkers over the history, each timed. The suite then runs
   again, for its times only, until it has run three times or for
   [check_budget] reference seconds, so a short suite is timed more than
   once. *)
let check_budget = 6.

let checks (inst : Workloads.instance) (outcome : Runner.outcome) =
  let history = outcome.Runner.history in
  let engine = inst.engine in
  let sharded = Engine.shard_count engine > 1 in
  let shard_of_node =
    if sharded then Some (fun node -> Engine.shard_of_node engine ~node) else None
  in
  let vector =
    if sharded then Some (fun txn -> Engine.assigned_vector engine ~txn) else None
  in
  let history_words = Obj.reachable_words (Obj.repr history) in
  let suite () =
    let srz, certify_s =
      timed (fun () -> Checker.Serializability.certify ?shard_of_node history)
    in
    let atom, atomicity_s = timed (fun () -> Checker.Atomicity.check history) in
    let vr, version_reads_s =
      timed (fun () -> Checker.Version_reads.check ?vector ?shard_of_node history)
    in
    let stale, staleness_s = timed (fun () -> Checker.Staleness.measure history) in
    ((srz, atom, vr, stale), { certify_s; atomicity_s; version_reads_s; staleness_s })
  in
  let (srz, atom, vr, stale), first = suite () in
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let rec more runs total =
    if List.length runs >= 3 || total >= check_budget then List.rev runs
    else
      let _, t = suite () in
      more (t :: runs) (total +. check_s t)
  in
  let problems =
    List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      [
        (Checker.Serializability.serializable srz, "MVSG has a cycle");
        (srz.Checker.Serializability.unknown_count = 0, "reads of unknown writers");
        (Checker.Atomicity.clean atom, "atomic-visibility anomaly");
        (Checker.Version_reads.clean vr, "version-read anomaly");
      ]
  in
  {
    runs = more [ first ] (check_s first);
    problems;
    mvsg_edges = srz.Checker.Serializability.edges;
    mvsg_txns = srz.Checker.Serializability.txns;
    staleness_missed = stale.Checker.Staleness.mean_missed;
    history_words;
    peak_heap_words;
  }

type traced = {
  traced_s : float list;  (** reference seconds of each traced drive *)
  t_digests : int list;
  stacks_profile : Sampler.profile;
  make_calls : int;
  make_s : float;  (** reference seconds inside the wrapped [make] *)
  submit_calls : int;
  submit_s : float;  (** reference seconds inside the wrapped [submit] *)
  coord_msgs : int;  (** remote sends touching a coordinator endpoint *)
}

(* The traced drive: the stack sampler is armed, [Generator.make] and the
   packed [submit] are wrapped with timers, and a [link_latency] hook that
   always answers [None] (so the schedule is unchanged) counts the remote
   sends to or from a coordinator endpoint. The drive is repeated, up to
   [max_drives] times, until [min_samples] stacks are in. *)
let traced ~build ~nodes ~min_samples ~max_drives =
  let make_calls = ref 0 and make_s = ref 0. in
  let submit_calls = ref 0 and submit_s = ref 0. and coord_msgs = ref 0 in
  let link_latency ~src ~dst =
    if src >= nodes || dst >= nodes then incr coord_msgs;
    None
  in
  let wrapped acc calls f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    acc := !acc +. (Unix.gettimeofday () -. t0);
    incr calls;
    r
  in
  let rec go n times digests stacks =
    let inst : Workloads.instance = build ~link_latency in
    let gen = inst.gen in
    let make rng ~id = wrapped make_s make_calls (fun () -> gen.Workload.Generator.make rng ~id) in
    let (Txn.Engine_intf.Packed ((module E), e)) = Engine.packed inst.engine in
    let module Timed = struct
      include E

      let submit t spec = wrapped submit_s submit_calls (fun () -> E.submit t spec)
    end in
    let make0 = !make_s and submit0 = !submit_s in
    let (outcome, taken), time =
      Speed.measure (fun () ->
          Sampler.with_sampling (fun () ->
              Runner.drive inst.sim
                (Txn.Engine_intf.Packed ((module Timed), e))
                { gen with Workload.Generator.make } inst.setup))
    in
    (* This drive's wrapper wall time, in reference seconds. *)
    make_s := make0 +. ((!make_s -. make0) *. time.Speed.scale);
    submit_s := submit0 +. ((!submit_s -. submit0) *. time.Speed.scale);
    let times = time.Speed.ref_s :: times in
    let digests = digest outcome.Runner.history :: digests in
    let stacks = List.rev_append taken stacks in
    if n < max_drives && List.length stacks < min_samples then go (n + 1) times digests stacks
    else
      {
        traced_s = List.rev times;
        t_digests = List.rev digests;
        stacks_profile = Sampler.profile stacks;
        make_calls = !make_calls;
        make_s = !make_s;
        submit_calls = !submit_calls;
        submit_s = !submit_s;
        coord_msgs = !coord_msgs;
      }
  in
  go 1 [] [] []

(* [in_child f] runs [f] in a forked child and returns its result, so each
   measurement starts from the parent's small heap and its memory peak is
   its own. An exception in the child comes back as [Error]. *)
let in_child (f : unit -> 'a) : ('a, string) result =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (r : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r =
        try (Marshal.from_channel ic : ('a, string) result)
        with End_of_file -> Error "child exited without a result"
      in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      (match (r, status) with
      | Ok _, Unix.WEXITED 0 -> r
      | Ok _, _ -> Error "child exited abnormally"
      | Error _, _ -> r)
