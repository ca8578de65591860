(* The five benchmark workloads and how each is built from a seed.

   Every workload is an open loop on one thread: [Harness.Runner.drive]'s
   client fiber draws Poisson arrivals in virtual time, so the generator is
   never late and machine cost shows up as wall time, not as queueing.
   Shared by all: exponential 2 ms links, 0.1 ms think time, a 2 s settle
   period, the synthetic generator (50 keys/node, zipf 0.5) and OCaml's
   default GC settings, as [threev_sim] runs. *)

module Sim = Simul.Sim
module Engine = Threev.Engine

type t = {
  name : string;
  nodes : int;
  shards : int;
  replicas : int;
  rate : float;  (** arrivals per virtual second *)
  duration : float;  (** submission window, virtual seconds *)
  read_ratio : float;
  fanout : int;
  period : float;  (** [Policy.Periodic] advancement period *)
  faulty : bool;
      (** the faults shape: reliable channel, heartbeat detector, watchdog,
          2% remote loss, a replica-group crash and a heartbeat storm *)
}

let plain ~name ~nodes ?(shards = 1) ~rate ~duration ?(read_ratio = 0.3)
    ?(fanout = 2) ~period () =
  { name; nodes; shards; replicas = 1; rate; duration; read_ratio; fanout;
    period; faulty = false }

(* Why each workload is here is recorded in BENCHMARK.json and
   benchmark/README.md. *)
let all =
  [
    (* The paper's core path, commuting updates only; hot keys make the
       certifier the largest cost. *)
    plain ~name:"commute-64" ~nodes:64 ~rate:19_200. ~duration:4.0 ~period:0.25 ();
    (* One coordinator at tight cadence: advancement work dominates. *)
    plain ~name:"advance-512" ~nodes:512 ~rate:19_200. ~duration:1.5 ~period:0.05 ();
    (* Per-node and per-event cost at scale, 64-node shards. *)
    plain ~name:"scale-1024" ~nodes:1024 ~shards:16 ~rate:76_800. ~duration:1.0
      ~period:0.1 ();
    (* The network layer used differently: retransmission, mirrors, acks,
       dedup and the failure detector. *)
    {
      (plain ~name:"faults-k3" ~nodes:48 ~rate:4_800. ~duration:8.0 ~period:0.25 ()) with
      replicas = 3;
      faulty = true;
    };
    (* Reads fanning out across shards: the store read path, read vectors
       and the vector-fenced checker. *)
    plain ~name:"reads-xshard" ~nodes:128 ~shards:8 ~rate:19_200. ~duration:3.0
      ~read_ratio:0.8 ~fanout:4 ~period:0.1 ();
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let settle = 2.0

(* How long each subtransaction body runs at its node. An update's submitter
   waits for its root subtransaction only, so an update that queues behind
   nothing and waits on no remote node blocks for exactly this long. *)
let think_time = 0.0001

type instance = {
  sim : Sim.t;
  engine : Engine.t;
  gen : Workload.Generator.t;
  setup : Harness.Runner.setup;
}

(* [scale] shrinks the submission window (the smoke run uses 1/20) and, below
   1, the settle period too; nothing else changes. *)
let build ?link_latency ~seed ~scale w =
  let duration = w.duration *. scale in
  let sim =
    Sim.create ~seed ~queue_capacity:(max 1024 (int_of_float (w.rate /. 4.))) ()
  in
  let cfg =
    {
      (Engine.default_config ~nodes:w.nodes) with
      Engine.shards = w.shards;
      replicas = w.replicas;
      latency = Netsim.Latency.Exponential 0.002;
      think_time;
      policy = Threev.Policy.Periodic w.period;
      expected_inbox_depth =
        max 16 (int_of_float (w.rate *. 0.01 /. float_of_int w.nodes));
    }
  in
  let cfg, plan =
    if not w.faulty then (cfg, Fault.Plan.none)
    else
      let group0 =
        Repl.Placement.members
          (Repl.Placement.create ~nodes:w.nodes ~replicas:w.replicas)
          0
      in
      ( {
          cfg with
          reliable_channel = true;
          retransmit_timeout = 0.02;
          hb_period = 0.02;
          hb_timeout = 0.08;
          phase_deadline = 0.5;
        },
        Fault.Plan.make ~seed
          ~rules:
            (Fault.Plan.uniform_loss ~drop:0.02 ()
            @ Fault.Plan.heartbeat_loss ~src:7 ~from_:(0.2 *. duration)
                ~until_:(0.5 *. duration) ())
          ~crashes:
            (Fault.Plan.crash_replicas ~members:group0 ~keep:1
               ~at:(0.3 *. duration) ~restart:(0.6 *. duration))
          () )
  in
  let faults = Fault.Injector.create sim plan in
  let engine = Engine.create sim cfg ?link_latency ~faults () in
  let gen =
    Workload.Synthetic.generator
      {
        (Workload.Synthetic.default ~nodes:w.nodes) with
        Workload.Synthetic.shards = w.shards;
        arrival_rate = w.rate;
        read_ratio = w.read_ratio;
        fanout = w.fanout;
      }
  in
  {
    sim;
    engine;
    gen;
    setup =
      {
        Harness.Runner.seed;
        duration;
        settle = (if scale < 1. then settle *. 0.1 else settle);
        max_txns = 1_000_000;
      };
  }
