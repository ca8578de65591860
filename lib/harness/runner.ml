module Sim = Simul.Sim
module Ivar = Simul.Ivar
module Spec = Txn.Spec
module Result = Txn.Result
module Engine_intf = Txn.Engine_intf
module Histogram = Stats.Histogram

type setup = { seed : int; duration : float; settle : float; max_txns : int }

let default_setup = { seed = 1; duration = 2.0; settle = 5.0; max_txns = 100_000 }

type outcome = {
  engine_name : string;
  history : (Spec.t * Result.t) list;
  submitted : int;
  committed : int;
  aborted : int;
  unfinished : int;
  duration : float;
  throughput : float;
  read_latency : Histogram.t;
  update_latency : Histogram.t;
  read_blocking : Histogram.t;
  update_blocking : Histogram.t;
  in_flight : Stats.Series.t;
  stats : Stats.Counter_set.t;
}

let drive sim engine gen (setup : setup) =
  let rng = Random.State.make [| setup.seed; 0x9e3779b9 |] in
  let rate = Workload.Generator.rate gen in
  if rate <= 0. then invalid_arg "Runner.drive: arrival rate must be positive";
  let inflight : (Spec.t * Result.t Ivar.t) list ref = ref [] in
  let submitted = ref 0 in
  let start = Sim.now sim in
  let in_flight_series = Stats.Series.create () in
  (* The sampler owns a pruned list of not-yet-resolved ivars: resolution is
     monotone, so once an ivar is observed full it can never count again and
     is dropped. Scanning all of [inflight] every tick instead would make the
     sampler O(total submitted) per 0.05s — quadratic over a long run. *)
  let unresolved : Result.t Ivar.t list ref = ref [] in
  let rec sample () =
    unresolved := List.filter (fun iv -> not (Ivar.is_full iv)) !unresolved;
    Stats.Series.add in_flight_series ~x:(Sim.now sim)
      ~y:(float_of_int (List.length !unresolved));
    Sim.after sim 0.05 sample
  in
  Sim.schedule sim ~delay:0. sample;
  (* The workload client: a chain of callbacks from a start event, one
     [Sim.after] per Poisson gap. A failing arrival stops the run under
     its name. *)
  let rec wait () =
    let gap = -.log (1. -. Random.State.float rng 1.) /. rate in
    Sim.after sim gap arrive
  and arrive () =
    if Sim.now sim -. start <= setup.duration && !submitted < setup.max_txns then
      match
        incr submitted;
        let spec = gen.Workload.Generator.make rng ~id:!submitted in
        let ivar = Engine_intf.packed_submit engine spec in
        inflight := (spec, ivar) :: !inflight;
        unresolved := ivar :: !unresolved
      with
      | () -> wait ()
      | exception exn -> Sim.fail sim "workload-client" exn
  in
  Sim.schedule sim ~delay:0. wait;
  ignore (Sim.run sim ~until:(start +. setup.duration +. setup.settle) ());
  let history = ref [] and unfinished = ref 0 in
  List.iter
    (fun (spec, ivar) ->
      match Ivar.peek ivar with
      | Some res -> history := (spec, res) :: !history
      | None -> incr unfinished)
    !inflight;
  let history = !history in
  let read_latency = Histogram.create ()
  and update_latency = Histogram.create ()
  and read_blocking = Histogram.create ()
  and update_blocking = Histogram.create () in
  let committed = ref 0 and aborted = ref 0 in
  List.iter
    (fun ((spec : Spec.t), (res : Result.t)) ->
      if Result.committed res then incr committed else incr aborted;
      match spec.Spec.kind with
      | Spec.Read_only ->
          Histogram.add read_latency (Result.latency res);
          Histogram.add read_blocking (Result.blocking_latency res)
      | Spec.Commuting | Spec.Non_commuting ->
          Histogram.add update_latency (Result.latency res);
          Histogram.add update_blocking (Result.blocking_latency res))
    history;
  {
    engine_name = Engine_intf.packed_name engine;
    history;
    submitted = !submitted;
    committed = !committed;
    aborted = !aborted;
    unfinished = !unfinished;
    duration = setup.duration;
    throughput = float_of_int !committed /. setup.duration;
    read_latency;
    update_latency;
    read_blocking;
    update_blocking;
    in_flight = in_flight_series;
    stats = Engine_intf.packed_stats engine;
  }

let atomicity outcome = Checker.Atomicity.check outcome.history
let staleness outcome = Checker.Staleness.measure outcome.history
