module Sim = Simul.Sim
module Latency = Netsim.Latency
module Spec = Txn.Spec
module Op = Txn.Op
module Result = Txn.Result
module Engine = Threev.Engine
module Policy = Threev.Policy
module Counter_set = Stats.Counter_set
module Histogram = Stats.Histogram
module Table = Stats.Table
module Global_2pc = Baselines.Global_2pc
module Manual_versioning = Baselines.Manual_versioning

type t = {
  id : string;
  title : string;
  paper_ref : string;
  run : quick:bool -> string;
}

let experiment id title paper_ref run = { id; title; paper_ref; run }

(* --------------------------------------------------------------- runs *)

(* A finished run as a table reads it: the outcome, the 3V engine when
   there is one, and the checker reports, each computed on first use. *)
type run = {
  outcome : Runner.outcome;
  engine : Engine.t option;
  wedged : bool;  (* the advancement [run_case] triggered never finished *)
  atomicity : Checker.Atomicity.report Lazy.t;
  staleness : Checker.Staleness.report Lazy.t;
  certified : Certify.t Lazy.t;
}

let of_outcome ?engine outcome =
  {
    outcome;
    engine;
    wedged = false;
    atomicity = lazy (Runner.atomicity outcome);
    staleness = lazy (Runner.staleness outcome);
    certified = lazy (Certify.run ?engine outcome.Runner.history);
  }

(* Every table drives through here, whatever the engine: a 3V config keeps
   its engine, published first when [publish] is set so that the settled
   stores replay the history. *)
let drive (type e) ?plan ?before ?(publish = false) (config : e Scenario.config)
    gen setup =
  let d = Scenario.drive ?plan ?before config gen setup in
  let engine : Engine.t option =
    match config with
    | Scenario.V3 _ ->
        if publish then Scenario.publish d;
        Some d.engine
    | _ -> None
  in
  of_outcome ?engine d.outcome

let threev r =
  match r.engine with
  | Some e -> e
  | None -> invalid_arg "Experiments: a 3V column on a baseline run"

let count r key = Counter_set.get r.outcome.Runner.stats key

(* Scenario's engine shapes, which the tables vary and edit further. *)
let v3, reliable, twopc, nocoord, manual =
  Scenario.(v3, reliable, twopc, nocoord, manual)

let setup ~seed ~settle duration =
  { Runner.default_setup with Runner.seed; duration; settle }

(* ------------------------------------------------------------ columns *)

type 'r column = { header : string; cell : 'r -> string }

let column header cell = { header; cell }
let int_column header f = column header (fun r -> Table.cell_i (f r))
let ms x = Printf.sprintf "%.2f" (1000. *. x)

let percentile header h p =
  column header (fun r -> ms (Histogram.percentile (h r.outcome) p))

let stat header key = int_column header (fun r -> count r key)
let staleness header f = column header (fun r -> f (Lazy.force r.staleness))
let engine = column "engine" (fun r -> r.outcome.Runner.engine_name)
let committed = int_column "committed" (fun r -> r.outcome.Runner.committed)
let aborted = int_column "aborted" (fun r -> r.outcome.Runner.aborted)
let unfinished = int_column "unfinished" (fun r -> r.outcome.Runner.unfinished)

let throughput =
  column "throughput/s" (fun r -> Table.cell_f r.outcome.Runner.throughput)

let read_p50 = percentile "read p50 (ms)" (fun o -> o.Runner.read_latency) 50.
let read_p99 = percentile "read p99 (ms)" (fun o -> o.Runner.read_latency) 99.

let upd_block_p99 =
  percentile "upd-block p99 (ms)" (fun o -> o.Runner.update_blocking) 99.

let partial_reads =
  int_column "partial reads" (fun r ->
      (Lazy.force r.atomicity).Checker.Atomicity.partial_reads)

let advancements =
  int_column "advancements" (fun r -> Engine.advancements_completed (threev r))

let max_versions =
  int_column "max versions" (fun r -> Engine.max_versions_ever (threev r))

let bound_holds =
  column "bound holds" (fun r ->
      string_of_bool (Engine.max_versions_ever (threev r) <= 3))

let mean_staleness =
  staleness "mean staleness (ms)" (fun s -> ms s.Checker.Staleness.mean_lag)

let max_staleness =
  staleness "max staleness (ms)" (fun s -> ms s.Checker.Staleness.max_lag)

let max_lag = staleness "max lag (ms)" (fun s -> ms s.Checker.Staleness.max_lag)

let missed =
  staleness "missed upd/read" (fun s ->
      Printf.sprintf "%.2f" s.Checker.Staleness.mean_missed)

let dual_writes = stat "dual writes" "store.dual_writes_total"
let retransmits = stat "retransmits" "net.retransmissions"
let drops = stat "drops" "fault.drops"
let failovers = stat "failovers" "repl.failovers"

(* Recoveries as each fault-tolerance layer counts them: the coordinator's
   WAL resumes (E13), replica catch-ups (E14), detector trust regained
   (E15). *)
let recoveries key = stat "recoveries" key

(* The anomalies {!Certify.run} finds in a run, summed over its checkers:
   a cycle, unknown tags, partial and dirty reads, version-read violations
   and replay mismatches. *)
let anomaly_count r =
  let c = Lazy.force r.certified in
  let srz = c.Certify.serializability and atom = c.Certify.atomicity in
  let opt f = Option.fold ~none:0 ~some:f in
  (if Checker.Serializability.serializable srz then 0 else 1)
  + srz.Checker.Serializability.unknown_count
  + atom.Checker.Atomicity.partial_reads
  + atom.Checker.Atomicity.dirty_reads
  + opt
      (fun v -> v.Checker.Version_reads.violation_count)
      c.Certify.version_reads
  + opt (fun p -> p.Checker.Replay.mismatch_count) c.Certify.replay

let anomalies = int_column "anomalies" anomaly_count

(* The one renderer: a titled table whose row [(cells, run)] is the
   parameter cells under [params], then each column's cell of [run ()];
   then a blank line and the note, one string per line. Rows run in order,
   and a run is dropped once its cells are read unless a note holds it. *)
let table ~title ?(params = []) columns rows note =
  let t =
    Table.create ~title
      ~columns:(params @ List.map (fun c -> c.header) columns)
  in
  List.iter
    (fun (cells, run) ->
      let r = run () in
      Table.add_row t (cells @ List.map (fun c -> c.cell r) columns))
    rows;
  Table.to_string t ^ "\n" ^ String.concat "\n" note ^ "\n"

(* --------------------------------------------- shared experiment code *)

(* The fault experiments' mix: every transaction touches two nodes, so
   some traffic always avoids a faulted node. *)
let two_node_mix ~nodes rate =
  Workload.Synthetic.generator
    {
      (Workload.Synthetic.default ~nodes) with
      Workload.Synthetic.arrival_rate = rate;
      read_ratio = 0.25;
      fanout = 2;
      keys_per_node = 20;
      zipf_s = 0.7;
    }

(* The run restricted to the bystanders of a fault on [node]: transactions
   submitted in [from_, until_] that never visit it. Only the fields
   {!bystander_columns} read are restricted: the history, the commit count,
   read latency and update blocking. *)
let bystanders ~node ~from_ ~until_ r =
  let history =
    List.filter
      (fun ((spec : Spec.t), (res : Result.t)) ->
        res.Result.submit_time >= from_
        && res.Result.submit_time <= until_
        && not (List.mem node (Spec.nodes spec)))
      r.outcome.Runner.history
  in
  let read_latency = Histogram.create ()
  and update_blocking = Histogram.create () in
  List.iter
    (fun ((spec : Spec.t), res) ->
      match spec.Spec.kind with
      | Spec.Read_only -> Histogram.add read_latency (Result.latency res)
      | Spec.Commuting | Spec.Non_commuting ->
          Histogram.add update_blocking (Result.blocking_latency res))
    history;
  of_outcome
    {
      r.outcome with
      Runner.history;
      committed =
        List.length (List.filter (fun (_, res) -> Result.committed res) history);
      read_latency;
      update_blocking;
    }

(* E10 and E12's bystander count, commits, read p99 and update-blocking
   p99. *)
let bystander_columns ~node ~from_ ~until_ =
  List.map
    (fun c ->
      { c with cell = (fun r -> c.cell (bystanders ~node ~from_ ~until_ r)) })
    [
      int_column "bystander txns" (fun r -> List.length r.outcome.Runner.history);
      committed;
      read_p99;
      upd_block_p99;
    ]

(* One E12-E15 case: a 3V drive with one advancement triggered at 0.95 s,
   just before the faults those experiments place. The run is [wedged]
   when that advancement has not finished once the drive (and [publish])
   is over. *)
let run_case ?plan ?publish cfg gen setup =
  let adv = ref None in
  let r =
    drive ?plan ?publish
      ~before:(fun sim e ->
        Sim.schedule sim ~delay:0.95 (fun () -> adv := Some (Engine.advance e)))
      (V3 cfg) gen setup
  in
  { r with wedged = not (Option.fold ~none:false ~some:Simul.Ivar.is_full !adv) }

(* E13-E15's advancement count, marked when {!run_case}'s advancement
   wedged. *)
let advancements_or_wedged =
  {
    advancements with
    cell = (fun r -> advancements.cell r ^ if r.wedged then " (wedged)" else "");
  }

(* Manual versioning's read version as a function of time, with its
   version publisher down over [outage] when given — the E13/E14 baseline
   notes. Publication is a pure function of the schedule, so nothing is
   driven. *)
let manual_read_version ~nodes ?outage () =
  let m =
    Manual_versioning.create (Sim.create ())
      {
        (Manual_versioning.default_config ~nodes) with
        schedule = Periodic { period = 0.5; safety_delay = 0.2 };
      }
  in
  Option.iter
    (fun (at, restart) -> Manual_versioning.inject_coord_crash m ~at ~restart)
    outage;
  fun now -> Manual_versioning.read_version_at m ~now

(* When the coordinator of a fault-free reference run entered phase [k] of
   its first advancement, from its write-ahead log: E13-E15 place their
   crashes inside a target phase with it (runs are byte-identical up to the
   crash instant). *)
let phase_entry r k =
  match
    List.find_opt
      (fun (a, p, _) -> a = 1 && Threev.Coord_log.phase_number p = k)
      (Threev.Coord_log.phase_times (Engine.coord_log (threev r)))
  with
  | Some (_, _, tm) -> tm
  | None -> failwith "reference run missing a phase entry"

(* Order-independent history digest for the byte-identical-replay check:
   same set of (txn, outcome, timing) tuples => same digest. The per-tuple
   digest is a structural FNV-style mix (not [Hashtbl.hash], whose value
   depends on the runtime's hash layout), so the digest is stable across
   compiler versions; the outer [lxor] fold keeps it order-independent. *)
let history_digest r =
  let mix acc n = ((acc * 0x01000193) + n) land 0x3FFFFFFF in
  let mix_float acc f =
    let bits = Int64.bits_of_float f in
    let lo = Int64.to_int (Int64.logand bits 0xFFFFFFFFL) in
    mix (mix acc lo) (Int64.to_int (Int64.shift_right_logical bits 32))
  in
  List.fold_left
    (fun acc ((spec : Spec.t), (res : Result.t)) ->
      let h = mix 0x811C9DC5 spec.Spec.id in
      let h = mix h (Bool.to_int (Result.committed res)) in
      let times =
        Result.[ res.submit_time; latency res; blocking_latency res ]
      in
      acc lxor List.fold_left mix_float h times)
    0 r.outcome.Runner.history

(* E12-E15's replay line: two runs of one case must give one history. *)
let replay_note ?(identical = "") runs a b =
  let same = history_digest a = history_digest b in
  Printf.sprintf
    "replay determinism: two %s with the same seeds produced %s histories%s."
    runs
    (if same then "identical" else "DIFFERENT")
    (if same then identical else "")

(* Committed update transactions: with their write operations, the
   denominator of the copy-on-write and dual-write ratios. *)
let committed_updates r =
  List.filter
    (fun ((spec : Spec.t), res) ->
      Result.committed res && spec.Spec.kind <> Spec.Read_only)
    r.outcome.Runner.history

let rec write_ops (st : Spec.subtxn) =
  List.length (List.filter Op.is_write st.Spec.ops)
  + List.fold_left (fun acc c -> acc + write_ops c) 0 st.Spec.children

(* -------------------------------------------------------- experiments *)

let t1 =
  experiment "t1" "Table 1 — example execution replay" "Table 1, §2.3"
  @@ fun ~quick:_ ->
  let replay = Table1.run () in
  let checks =
    [
      ("advancement completed (all 4 phases + GC)", replay.Table1.advancement_completed);
      ("read version advanced to 1 everywhere", replay.Table1.read_version_after = 1);
      ("update tx i committed", replay.Table1.txn_i_committed);
      ("update tx j committed", replay.Table1.txn_j_committed);
      ("reads x and y saw only version-0 data", replay.Table1.reads_saw_version0);
      ( "final counters match the paper",
        replay.Table1.final_counters
        = [
            ("C1[p->p]", 1); ("C1[p->q]", 1); ("C1[p->s]", 1); ("C1[q->p]", 1);
            ("C2[q->p]", 1); ("C2[q->q]", 1); ("R1[p->p]", 1); ("R1[p->q]", 1);
            ("R1[p->s]", 1); ("R1[q->p]", 1); ("R2[q->p]", 1); ("R2[q->q]", 1);
          ] );
    ]
  in
  "Replay of the paper's Table 1 (example execution sequence, sites p/q/s):\n\n"
  ^ Table1.render_trace replay ^ "\n"
  ^ table ~title:"T1 checks" ~params:[ "check"; "ok" ] []
      (List.map (fun (what, ok) -> ([ what; string_of_bool ok ], Fun.id)) checks)
      [
        "Matches the paper: subtx iq performs the dual write on D (versions";
        "1 and 2) but updates E only in version 1; node p learns of the";
        "advancement implicitly from jp; site s is notified only at t=28;";
        "and all request counters equal completion counters at the end.";
      ]

let f1 =
  experiment "f1" "Figure 1 — hospital scenario correctness" "Figure 1, §1"
  @@ fun ~quick ->
  let nodes = 4 in
  let setup = setup ~seed:11 ~settle:3.0 (if quick then 0.5 else 2.0) in
  let gen =
    Workload.Hospital.generator
      {
        (Workload.Hospital.default ~nodes) with
        Workload.Hospital.front_end = true;
        read_ratio = 0.3;
        arrival_rate = 400.;
        visit_fanout = 2;
      }
  in
  let run config = ([], fun () -> drive config gen setup) in
  table ~title:"F1: hospital front-end workload (Figure 1)"
    [
      engine; committed; throughput; partial_reads;
      int_column "dirty reads" (fun r ->
          (Lazy.force r.atomicity).Checker.Atomicity.dirty_reads);
      read_p99; missed;
    ]
    [
      run (V3 (v3 ~nodes (Policy.Periodic 0.1)));
      run (nocoord ~nodes);
      run (twopc ~nodes ());
    ]
    [
      "Shape check: only no-coordination shows partial reads (a patient";
      "inquiry observing some but not all of a visit's charges — the §1";
      "anomaly); 3V and global-2PC are clean, but 2PC pays for it in read";
      "tail latency while 3V reads only pay staleness.";
    ]

let f2 =
  experiment "f2" "Figure 2 — version layout snapshots" "Figure 2, §2.3"
  @@ fun ~quick:_ ->
  "Figure 2 version layouts during the Table 1 replay (versions per item;\n\
   vu/vr are the site's update/read versions):\n\n"
  ^ Table1.render_snapshots (Table1.run ())
  ^ "\n\
     Expected shape (paper Figure 2): at t=12 only D has a version-2\n\
     copy; at t=20 A and D each hold three simultaneous versions\n\
     (0, 1, 2) — the paper's maximum; after advancement and garbage\n\
     collection every item is relabelled so only versions >= 1 remain.\n"

let e1 =
  experiment "e1" "Scalability across engines" "§1 four options, §8"
  @@ fun ~quick ->
  let rows nodes =
    let gen =
      Workload.Synthetic.generator
        {
          (Workload.Synthetic.default ~nodes) with
          Workload.Synthetic.arrival_rate = 150. *. float_of_int nodes;
          fanout = 2;
          read_ratio = 0.25;
          keys_per_node = 25;
          zipf_s = 0.9;
        }
    in
    let setup =
      setup ~seed:(21 + nodes) ~settle:3.0 (if quick then 0.5 else 2.0)
    in
    let run config = ([ Table.cell_i nodes ], fun () -> drive config gen setup) in
    [
      run (V3 (v3 ~nodes (Policy.Periodic 0.2)));
      run (nocoord ~nodes);
      run (twopc ~nodes ());
      run (manual ~nodes ~period:0.5 ~safety_delay:0.2 ());
    ]
  in
  table ~title:"E1: scalability — throughput and latency vs node count"
    ~params:[ "nodes" ]
    [
      engine; committed; aborted; throughput; read_p50; read_p99;
      upd_block_p99; partial_reads;
    ]
    (List.concat_map rows (if quick then [ 2; 4 ] else [ 2; 4; 8; 16 ]))
    [
      "Shape check (paper §1/§8): 3V tracks no-coordination closely and";
      "scales with node count while staying anomaly-free; global-2PC";
      "commits less under contention (aborts, lock waits) and its read";
      "p99 is far above 3V's; manual versioning matches 3V throughput";
      "but see E8 for its staleness/correctness trade-off.";
    ]

let e2 =
  experiment "e2" "Reads never delayed" "§8" @@ fun ~quick ->
  let nodes = 4 in
  let rows rate =
    let gen =
      Workload.Hospital.generator
        {
          (Workload.Hospital.default ~nodes) with
          Workload.Hospital.arrival_rate = rate /. 0.75;
          read_ratio = 0.25;
          patients = 10 (* hot patients -> real lock contention *);
          zipf_s = 1.2;
        }
    in
    let setup = setup ~seed:31 ~settle:3.0 (if quick then 0.5 else 2.0) in
    let run config = ([ Table.cell_f rate ], fun () -> drive config gen setup) in
    [ run (V3 (v3 ~nodes (Policy.Periodic 0.1))); run (twopc ~nodes ()) ]
  in
  table ~title:"E2: reads are never delayed — read latency vs update pressure"
    ~params:[ "update rate/s" ]
    [
      engine;
      int_column "reads" (fun r -> Histogram.count r.outcome.Runner.read_latency);
      read_p50;
      read_p99;
      column "read max (ms)" (fun r ->
          ms (Histogram.max r.outcome.Runner.read_latency));
      int_column "aborted reads" (fun r ->
          List.length
            (List.filter
               (fun ((spec : Spec.t), res) ->
                 spec.Spec.kind = Spec.Read_only && not (Result.committed res))
               r.outcome.Runner.history));
    ]
    (List.concat_map rows (if quick then [ 200. ] else [ 100.; 400.; 800. ]))
    [
      "Shape check (§8): 3V read latency is flat in the update rate and";
      "no read ever aborts; under 2PC the read tail grows with update";
      "pressure because inquiries wait behind exclusive locks held across";
      "two-phase commits (and some deadlock-abort).";
    ]

let e3 =
  experiment "e3" "Currency vs copy overhead" "§7" @@ fun ~quick ->
  let nodes = 4 in
  let gen =
    Workload.Call_recording.generator
      {
        (Workload.Call_recording.default ~nodes) with
        Workload.Call_recording.arrival_rate = 500.;
      }
  in
  let run period =
    ( [ Table.cell_f period ],
      fun () ->
        drive
          (V3 (v3 ~nodes (Policy.Periodic period)))
          gen
          (setup ~seed:41 ~settle:4.0 (if quick then 1.0 else 4.0)) )
  in
  table ~title:"E3: advancement period — data currency vs copy overhead"
    ~params:[ "period (s)" ]
    [
      advancements; mean_staleness; max_staleness;
      column "copies/update" (fun r ->
          let updates = List.length (committed_updates r) in
          Printf.sprintf "%.3f"
            (if updates = 0 then 0.
             else
               float_of_int (count r "store.copies_created")
               /. float_of_int updates));
      missed;
    ]
    (List.map run
       (if quick then [ 0.1; 0.5 ] else [ 0.05; 0.1; 0.2; 0.5; 1.0; 2.0 ]))
    [
      "Shape check (§7): the user trades currency for update performance —";
      "staleness grows roughly linearly with the advancement period while";
      "copy-on-write cost per update falls (copying happens once per item";
      "per advancement, so fewer advancements = fewer copies).";
    ]

let e4 =
  experiment "e4" "At most three versions" "§4.4 property 2a" @@ fun ~quick ->
  let run (nodes, period, rate) =
    let gen =
      Workload.Hospital.generator
        {
          (Workload.Hospital.default ~nodes) with
          Workload.Hospital.arrival_rate = rate;
          read_ratio = 0.2;
        }
    in
    ( [ Table.cell_i nodes; Table.cell_f period; Table.cell_f rate ],
      fun () ->
        drive
          (V3
             {
               (v3 ~nodes (Policy.Periodic period)) with
               poll_interval = period /. 4.;
             })
          gen
          (setup ~seed:51 ~settle:3.0 (if quick then 1.0 else 2.0)) )
  in
  table ~title:"E4: at most three versions of any item (paper §4.4, 2a)"
    ~params:[ "nodes"; "adv period (s)"; "rate/s" ]
    [ advancements; max_versions; bound_holds ]
    (List.map run
       (if quick then [ (4, 0.02, 1000.) ]
        else
          [
            (2, 0.02, 600.); (4, 0.02, 1200.); (8, 0.01, 2400.);
            (4, 0.005, 1200.);
          ]))
    [
      "Back-to-back advancements with stochastic message delays never push";
      "any item past three simultaneous versions, because an advancement";
      "instance only completes after every node acknowledged garbage";
      "collection of the version it retired.";
    ]

let e5 =
  experiment "e5" "Non-commuting updates (NC3V)" "§5" @@ fun ~quick ->
  let nodes = 4 in
  let rows nc_ratio =
    let gen =
      Workload.Point_of_sale.generator
        {
          (Workload.Point_of_sale.default ~nodes) with
          Workload.Point_of_sale.nc_ratio;
          arrival_rate = 400.;
          read_ratio = 0.2;
        }
    in
    let setup = setup ~seed:61 ~settle:3.0 (if quick then 0.5 else 2.0) in
    let run config =
      ([ Printf.sprintf "%.2f" nc_ratio ], fun () -> drive config gen setup)
    in
    [
      run
        (V3
           {
             (v3 ~nodes (Policy.Periodic 0.2)) with
             nc_mode = true;
             deadlock_timeout = 0.05;
           });
      run (twopc ~nodes ());
    ]
  in
  table ~title:"E5: graceful handling of non-commuting updates (NC3V, §5)"
    ~params:[ "nc ratio" ]
    [ engine; committed; aborted; throughput; upd_block_p99; partial_reads ]
    (List.concat_map rows
       (if quick then [ 0.; 0.1 ] else [ 0.; 0.05; 0.1; 0.25; 0.5 ]))
    [
      "Shape check (§5/§8): at nc=0 commute locks never conflict, so 3V";
      "keeps its full throughput; as the non-commuting fraction grows,";
      "only the non-commuting minority pays 2PC/lock costs (some abort by";
      "the version-overtake rule or deadlock timeout) while reads stay";
      "anomaly-free. Global-2PC makes every transaction pay that cost.";
    ]

let e6 =
  experiment "e6" "Dual-write overhead" "§2.3" @@ fun ~quick ->
  let nodes = 4 in
  let run (period, rate) =
    let gen =
      Workload.Hospital.generator
        {
          (Workload.Hospital.default ~nodes) with
          Workload.Hospital.arrival_rate = rate;
          read_ratio = 0.1;
          visit_fanout = 3;
        }
    in
    ( [ Table.cell_f period; Table.cell_f rate ],
      fun () ->
        drive
          (V3
             (v3 ~latency:(Latency.Exponential 0.01) ~nodes
                (Policy.Periodic period)))
          gen
          (setup ~seed:71 ~settle:3.0 (if quick then 1.0 else 3.0)) )
  in
  let writes r =
    List.fold_left
      (fun acc ((spec : Spec.t), _) -> acc + write_ops spec.Spec.root)
      0 (committed_updates r)
  in
  let copies = "store.copies_created" in
  table
    ~title:
      "E6: dual-write overhead occurs only under advancement contention \
       (§2.3)"
    ~params:[ "adv period (s)"; "rate/s" ]
    [
      int_column "writes" writes;
      dual_writes;
      column "dual %" (fun r ->
          Table.cell_pct (count r "store.dual_writes_total") (writes r));
      stat "copies" copies;
      column "copies/write" (fun r ->
          let writes = writes r in
          Printf.sprintf "%.3f"
            (if writes = 0 then 0.
             else float_of_int (count r copies) /. float_of_int writes));
    ]
    (List.map run
       (if quick then [ (0.1, 500.) ]
        else
          [
            (0.05, 500.); (0.2, 500.); (1.0, 500.); (0.05, 2000.); (0.2, 2000.);
          ]))
    [
      "Shape check (§2.3): executing against both copies happens only when";
      "a straggler subtransaction hits an item that already has a newer";
      "copy — a tiny fraction of writes, growing with advancement";
      "frequency and in-flight transactions, and exactly the case that";
      "would have blocked the transaction in an ordinary system.";
    ]

let e7 =
  experiment "e7" "Advancement asynchrony" "§8" @@ fun ~quick ->
  let nodes = 4 in
  let gen =
    Workload.Hospital.generator
      {
        (Workload.Hospital.default ~nodes) with
        Workload.Hospital.arrival_rate = 600.;
      }
  in
  let run policy =
    ( [ Format.asprintf "%a" Policy.pp policy ],
      fun () ->
        drive
          (V3 (v3 ~nodes policy))
          gen
          (setup ~seed:81 ~settle:3.0 (if quick then 0.5 else 3.0)) )
  in
  table
    ~title:
      "E7: version advancement is asynchronous — user latency with and \
       without advancement churn (§8)"
    ~params:[ "policy" ]
    [
      advancements; throughput; read_p50; read_p99;
      percentile "upd-block p50 (ms)" (fun o -> o.Runner.update_blocking) 50.;
      upd_block_p99;
    ]
    (List.map run
       [
         Policy.Manual; Policy.Periodic 0.25; Policy.Periodic 0.05;
         Policy.Every_n_updates 50; Policy.Divergence 2000.;
       ])
    [
      "Shape check (§8): user-transaction latencies are statistically";
      "indistinguishable whether advancement never runs or runs";
      "continuously — the advancement traffic (notifications and counter";
      "polls) shares the network but no user transaction ever waits on it.";
    ]

let e8 =
  experiment "e8" "Manual versioning comparison" "§1" @@ fun ~quick ->
  let nodes = 4 in
  let period = 0.5 in
  (* Bounded jitter, scaled so that (like a real deployment) the period is
     much longer than any single message: the worst-case straggler is a few
     tens of ms, so a "safe" manual delay must exceed that — while 3V needs
     no such tuning. *)
  let latency = Latency.Uniform (0.0005, 0.012) in
  let gen =
    Workload.Hospital.generator
      {
        (Workload.Hospital.default ~nodes) with
        Workload.Hospital.arrival_rate = 800.;
        read_ratio = 0.4;
        patients = 25;
        visit_fanout = 3;
        post_delay = 0.08;
      }
  in
  let setup = setup ~seed:91 ~settle:4.0 (if quick then 2.0 else 6.0) in
  let manual_row safety_delay =
    ( [ "manual"; Table.cell_f safety_delay ],
      fun () ->
        drive (manual ~latency ~nodes ~period ~safety_delay ()) gen setup )
  in
  let threev_row period =
    ( [ Printf.sprintf "3v (periodic %gs)" period; "n/a" ],
      fun () ->
        drive (V3 (v3 ~latency ~nodes (Policy.Periodic period))) gen setup )
  in
  (* The paper: the delay "is usually set conservatively high" — we sweep
     from reckless (0) to conservative (a full period). *)
  let manual_rows =
    List.map manual_row
      (if quick then [ 0.0; 0.1 ] else [ 0.0; 0.005; 0.02; 0.05; 0.1 ])
  in
  table
    ~title:
      "E8: manual versioning — safety delay vs correctness and staleness \
       (§1)"
    ~params:[ "scheme"; "safety delay (s)" ]
    [ partial_reads; mean_staleness; max_staleness ]
    (manual_rows @ List.map threev_row [ period; 0.05 ])
    [
      "Shape check (§1): with a small safety delay, manual versioning";
      "returns partial charges (incorrect); correctness needs a delay";
      "sized to the worst-case straggler, which piles staleness on top of";
      "the period. 3V is always correct with no delay to tune, and";
      "because advancement is free it can simply run shorter periods";
      "(last row) for much fresher reads than any safe manual setting.";
    ]

(* The paper's asynchrony claim has a cost side: the advancement exchanges
   notifications, acks, counter polls and GC notices. E9 measures that
   traffic as a fraction of all remote messages, across advancement
   frequencies — it should stay small and independent of transaction rate.
   Each row is read against the base run, which never advances. *)
let e9 =
  experiment "e9" "Advancement message overhead" "§8 asynchrony, cost side"
  @@ fun ~quick ->
  let nodes = 6 in
  let gen =
    Workload.Call_recording.generator
      {
        (Workload.Call_recording.default ~nodes) with
        Workload.Call_recording.arrival_rate = 800.;
      }
  in
  let setup = setup ~seed:141 ~settle:3.0 (if quick then 1.0 else 4.0) in
  let run policy = drive (V3 (v3 ~nodes policy)) gen setup in
  let msgs r = count r "net.remote_messages" in
  let base = run Policy.Manual in
  let extra r = msgs r - msgs base in
  let periodic period =
    ( [ Printf.sprintf "periodic %gs" period ],
      fun () -> run (Policy.Periodic period) )
  in
  let periodic_rows =
    List.map periodic (if quick then [ 0.2 ] else [ 0.5; 0.2; 0.05 ])
  in
  table ~title:"E9: message cost of asynchronous advancement"
    ~params:[ "policy" ]
    [
      advancements;
      int_column "remote msgs" msgs;
      column "msgs/txn" (fun r ->
          Printf.sprintf "%.2f"
            (float_of_int (msgs r) /. float_of_int r.outcome.Runner.committed));
      int_column "advancement msgs" extra;
      column "overhead" (fun r -> Table.cell_pct (extra r) (msgs r));
    ]
    (([ "manual (none)" ], Fun.const base) :: periodic_rows)
    [
      "Shape check: advancement costs a fixed ~90 messages per round";
      "(notify/ack, two quiescence phases of counter polls, GC + ack) —";
      "independent of the transaction rate, so its share shrinks as the";
      "system gets busier and is negligible at realistic frequencies";
      "(the paper's 'every hour' would be ~0.001%). Even at the absurd";
      "20-advancements-per-second point none of this traffic is on any";
      "user transaction's critical path (E7).";
    ]

(* The sharpest form of the §8 no-remote-delay claim: freeze one node for a
   full second mid-run. Transactions that never touch the frozen node must
   be completely unaffected under 3V — even though an advancement stalls
   mid-phase behind the frozen node's acks — while under global 2PC the
   freeze cascades: multi-node transactions stuck on the frozen node hold
   locks at healthy nodes, delaying (and deadlock-aborting) transactions
   that never go near it. *)
let e10 =
  experiment "e10" "Outage tolerance — frozen node"
    "§8 no-remote-delay, sharpest form"
  @@ fun ~quick ->
  let nodes = 4 in
  let outage_start = 1.0 and outage = 1.0 in
  let paused_node = nodes - 1 in
  (* Reads, like updates, touch only two nodes — otherwise every read would
     visit the frozen node and there would be no bystander reads to
     measure. *)
  let gen = two_node_mix ~nodes 600. in
  let setup = setup ~seed:151 ~settle:4.0 (if quick then 2.5 else 4.0) in
  let pause inject _ e =
    inject e ~node:paused_node ~at:outage_start ~duration:outage
  in
  let config_3v = Scenario.V3 (v3 ~nodes (Policy.Periodic 0.2)) in
  let config_2pc = twopc ~deadlock_timeout:0.3 ~nodes () in
  let frozen_3v =
    drive ~before:(pause Engine.inject_pause) config_3v gen setup
  in
  table
    ~title:
      "E10: one node frozen for 1s — impact on transactions that never \
       touch it"
    ~params:[ engine.header; "outage" ]
    (bystander_columns ~node:paused_node ~from_:outage_start
       ~until_:(outage_start +. outage)
    @ [
        column "peak in-flight" (fun r ->
            Table.cell_f (Stats.Series.max_y r.outcome.Runner.in_flight));
        unfinished;
      ])
    [
      ([ "3v"; "none" ], fun () -> drive config_3v gen setup);
      ([ "3v"; "1s" ], Fun.const frozen_3v);
      ([ "global-2pc"; "none" ], fun () -> drive config_2pc gen setup);
      ( [ "global-2pc"; "1s" ],
        fun () ->
          drive ~before:(pause Global_2pc.inject_pause) config_2pc gen setup );
    ]
    [
      (* The in-flight timeline under the outage makes the backlog
         visible: it balloons while the node is frozen and drains right
         after. *)
      Printf.sprintf "3v in-flight transactions over time (outage at %gs):"
        outage_start;
      "["
      ^ Stats.Series.sparkline frozen_3v.outcome.Runner.in_flight ~buckets:60
      ^ "]";
      "";
      "Shape check (§8): under 3V, bystander transactions — submitted";
      "during the outage, never visiting the frozen node — keep exactly";
      "their no-outage latency profile, even though a version advancement";
      "is stalled mid-phase waiting for the frozen node. Under global";
      "2PC, transactions stuck on the frozen node keep exclusive locks";
      "at healthy nodes, so bystanders that share a hot patient block or";
      "abort: the outage spreads through the lock graph.";
    ]

(* E11: uniform message loss. With the reliable channel on (per-link
   sequence numbers, acks, timeout retransmission, receive-side dedup) the
   protocol must stay correct and keep completing advancements under loss
   — and because no user transaction ever waits for a remote event (§8),
   user-blocking latency must keep its lossless profile. *)
let e11 =
  experiment "e11" "Message loss tolerance — retransmission"
    "§8 under an unreliable network"
  @@ fun ~quick ->
  let nodes = 4 in
  let gen = two_node_mix ~nodes 400. in
  let setup = setup ~seed:161 ~settle:6.0 (if quick then 1.5 else 3.0) in
  let run drop =
    let plan =
      if drop = 0. then None
      else
        Some
          (Fault.Plan.make ~seed:1611
             ~rules:(Fault.Plan.uniform_loss ~dup:0.01 ~drop ())
             ())
    in
    drive ?plan (V3 (reliable (v3 ~nodes (Policy.Periodic 0.2)))) gen setup
  in
  (* Each row's update-blocking p99 also reads as a multiple of the
     lossless row's. *)
  let p99 r = Histogram.percentile r.outcome.Runner.update_blocking 99. in
  let lossless_run = run 0. in
  let lossless = Float.max (p99 lossless_run) 1e-9 in
  let row drop =
    ( [ Printf.sprintf "%g%%" (100. *. drop) ],
      if drop = 0. then Fun.const lossless_run else fun () -> run drop )
  in
  table
    ~title:
      "E11: uniform message loss — retransmission keeps 3V correct and \
       user latency flat"
    ~params:[ "loss" ]
    [
      committed; advancements; partial_reads; max_versions;
      {
        upd_block_p99 with
        cell =
          (fun r ->
            Printf.sprintf "%s (x%.2f)" (upd_block_p99.cell r)
              (p99 r /. lossless));
      };
      percentile "read-block p99 (ms)" (fun o -> o.Runner.read_blocking) 99.;
      retransmits; drops; unfinished;
    ]
    (List.map row (if quick then [ 0.; 0.05 ] else [ 0.; 0.01; 0.05; 0.1 ]))
    [
      "Shape check: at every loss rate the history stays anomaly-free,";
      "advancement keeps completing (lost phase messages and poll replies";
      "are retransmitted), items never exceed three versions, and the";
      "user-blocking p99 stays at the lossless profile (x1.0-ish): user";
      "transactions block only on local work, so loss costs bandwidth";
      "(retransmits), never user latency. The fault RNG is separate from";
      "the workload RNG, so rows differ only in the injected faults.";
    ]

(* E12: a node crashes mid-advancement and restarts one second later,
   recovering its volatile version registers from durable state (store GC
   floor + counters) and catching up via the paper's late-node rule. Under
   3V, bystander transactions — submitted during the outage, never
   touching the crashed node — are unaffected; under Global-2PC the crash
   spreads through the lock graph and there is no recovery path. *)
let e12 =
  experiment "e12" "Crash-restart recovery vs Global-2PC"
    "§3.1 resilience, §4.1 late-node rule"
  @@ fun ~quick ->
  let nodes = 4 in
  let crashed = nodes - 1 in
  let crash_at = 1.0 and restart_at = 2.0 in
  let gen = two_node_mix ~nodes 400. in
  let setup = setup ~seed:163 ~settle:6.0 (if quick then 2.5 else 4.0) in
  let plan =
    Fault.Plan.make ~seed:1212
      ~crashes:[ Fault.Plan.crash ~node:crashed ~at:crash_at ~restart:restart_at ]
      ()
  in
  (* The advancement triggered at 0.95 s makes the crash land mid-phase,
     with the crashed node holding unacknowledged protocol state. *)
  let case_3v ?plan () =
    run_case ?plan (reliable (v3 ~nodes Policy.Manual)) gen setup
  in
  let case_2pc ?plan () =
    drive ?plan (twopc ~deadlock_timeout:0.3 ~nodes ()) gen setup
  in
  let crash_3v = case_3v ~plan () in
  let e = threev crash_3v in
  table ~title:"E12: node crash during advancement — 3V recovery vs Global-2PC"
    ~params:[ engine.header; "crash" ]
    (bystander_columns ~node:crashed ~from_:crash_at ~until_:restart_at
    @ [ unfinished ])
    [
      ([ "3v"; "none" ], fun () -> case_3v ());
      ([ "3v"; "1s" ], Fun.const crash_3v);
      ([ "global-2pc"; "none" ], fun () -> case_2pc ());
      ([ "global-2pc"; "1s" ], fun () -> case_2pc ~plan ());
    ]
    [
      Printf.sprintf
        "3v crash case: advancement started at 0.95s %s; crashed node n%d \
         ended at vu=%d vr=%d, healthy n0 at vu=%d vr=%d."
        (if crash_3v.wedged then "NEVER completed"
         else "completed despite the crash")
        crashed
        (Engine.update_version e ~node:crashed)
        (Engine.read_version e ~node:crashed)
        (Engine.update_version e ~node:0)
        (Engine.read_version e ~node:0);
      replay_note "runs" crash_3v (case_3v ~plan ());
      "";
      "Shape check: under 3V the crashed node loses its volatile vu/vr,";
      "recovers them from durable state (store GC floor + counters) at";
      "restart, and the retransmitted phase messages plus the late-node";
      "rule bring it back in sync — the advancement still completes and";
      "bystanders keep their no-crash latency profile. Global-2PC has no";
      "recovery path: transactions touching the crashed node hold locks";
      "at healthy nodes, so the crash spreads and work is lost.";
    ]

(* E13: coordinator fail-stop crash in each of the four advancement phases.
   A reference run's write-ahead log supplies the phase-entry times, so each
   case's crash provably lands inside its target phase (the runs are
   byte-identical up to the crash instant). The restarted coordinator
   replays its WAL, bumps its poll epoch and re-drives the in-flight phase;
   node-side idempotence absorbs the re-driven messages. A final case wedges
   phase 1 with a scripted drop and no channel retransmission — only the
   stall watchdog's re-broadcast can resolve it. *)
let e13 =
  experiment "e13" "Coordinator crash tolerance — WAL resume + watchdog"
    "§4.3 coordinator liveness; robustness extension"
  @@ fun ~quick ->
  let nodes = 4 in
  let gen = two_node_mix ~nodes 400. in
  let setup = setup ~seed:171 ~settle:6.0 (if quick then 2.0 else 3.0) in
  let case ?(phase_deadline = infinity) ?(retransmit = true) ?plan () =
    run_case ?plan
      { (reliable (v3 ~nodes Policy.Manual)) with retransmit; phase_deadline }
      gen setup
  in
  (* The fault-free case; its WAL gives the phase-entry times. *)
  let reference = case () in
  (* Inside phase k: midway to the next phase's entry. Phase 4's entry is
     logged after its quiescence wait (see Coord_log), so land in the
     gc-ack exchange just after it. *)
  let crash_time k =
    let entry = phase_entry reference in
    if k < 4 then (entry k +. entry (k + 1)) /. 2. else entry 4 +. 0.002
  in
  let crash_in k =
    let at = crash_time k in
    case
      ~plan:
        (Fault.Plan.make ~seed:1713
           ~coord_crashes:[ Fault.Plan.coord_crash ~at ~restart:(at +. 0.3) ]
           ())
      ()
  in
  let crashes = List.map (fun k -> (k, crash_in k)) [ 1; 2; 3; 4 ] in
  (* Watchdog: drop the phase-1 broadcast to n0, turn channel retransmission
     off (ablation A4's wedge), and let the per-phase deadline repair it. *)
  let watchdog =
    case ~phase_deadline:0.06 ~retransmit:false
      ~plan:
        (Fault.Plan.make ~seed:1714
           ~rules:
             [ Fault.Plan.rule ~src:nodes ~dst:0 ~from_:0.9 ~nth:1 Fault.Plan.Drop ]
           ())
      ()
  in
  (* Baseline comparisons through the same inject_coord_crash surface. *)
  let gpc =
    let at = crash_time 2 in
    (drive
       ~before:(fun _ e ->
         Global_2pc.inject_coord_crash e ~at ~restart:(at +. 0.3))
       (twopc ~deadlock_timeout:0.3 ~nodes ())
       gen setup)
      .outcome
  in
  let down = manual_read_version ~nodes ~outage:(1.0, 3.0) () in
  let all_recovered =
    List.for_all
      (fun (_, r) ->
        (not r.wedged)
        && r.outcome.Runner.unfinished = 0
        && (Lazy.force r.atomicity).Checker.Atomicity.partial_reads = 0)
      crashes
  in
  table ~title:"E13: coordinator crash tolerance — WAL resume in every phase"
    ~params:[ "case"; "crash at" ]
    [
      advancements_or_wedged;
      recoveries "proto.coord_recoveries";
      stat "stalls" "proto.phase_stalled";
      committed; unfinished; partial_reads;
      { max_versions with header = "max vers" };
    ]
    ((([ "no crash"; "-" ], Fun.const reference)
     :: List.map
          (fun (k, r) ->
            let phase = Printf.sprintf "crash in phase %d" k in
            ([ phase; Printf.sprintf "%.3fs" (crash_time k) ], Fun.const r))
          crashes)
    @ [ ([ "stalled phase 1 + watchdog"; "-" ], Fun.const watchdog) ])
    [
      Printf.sprintf
        "crash-phase sweep: advancement %s after every single-phase crash \
         (restart +0.3s), with zero checker anomalies."
        (if all_recovered then "completed" else "FAILED to complete");
      (* Replay determinism: re-run the phase-2 case with the same seeds. *)
      replay_note "phase-2-crash runs" (List.assoc 2 crashes) (crash_in 2);
      Printf.sprintf
        "watchdog: %d stall(s) recorded; the re-broadcast resolved a \
         wedge that channel retransmission (off) could not."
        (count watchdog "proto.phase_stalled");
      Printf.sprintf
        "global-2pc under the same crash window (its coordination site, node \
         0): %d committed, %d unfinished — no WAL, no re-drive; work rooted \
         at the crashed site is simply lost."
        gpc.Runner.committed gpc.Runner.unfinished;
      Printf.sprintf
        "manual versioning, publisher down [1.0s, 3.0s): at 2.9s reads still \
         use version %d (vs %d had the publisher stayed up) — frozen for the \
         whole window, snapping to %d at restart (staleness grows linearly, \
         unbounded by any protocol)."
        (down 2.9) (manual_read_version ~nodes () 2.9) (down 3.0);
      "";
      "Shape check: the WAL records every phase entry before its first";
      "message, nodes treat re-driven phase messages idempotently, and";
      "counter polls are namespaced by restart epoch — so a coordinator";
      "crash in any phase costs only the outage window, never correctness.";
    ]

(* E14: k-way replication under data-node crashes. Six nodes in two
   replica groups of three; a reference run's WAL supplies the
   phase-entry times so the crash of k-1 replicas of group 0 provably
   lands mid-advancement (inside phase 2's quiescence wait). The quorum
   poll excuses the crashed replicas' mirror traffic, reads fail over to
   the surviving replica, and the recovered replicas serve reads again
   only after the readable-after-recovery gate reopens. All five checkers
   certify the crash history; Global-2PC under the same crash plan
   strands the same workload (no failover target exists). *)
let e14 =
  experiment "e14" "k-way replication — quorum advancement, failover, recovery"
    "§6 data replication; availability extension"
  @@ fun ~quick ->
  let nodes = 6 and k = 3 in
  let crash_keep = 1 in
  let gen = two_node_mix ~nodes 400. in
  let setup = setup ~seed:191 ~settle:6.0 (if quick then 2.0 else 3.0) in
  (* Published, so the settled store replays the history. *)
  let case ?(replicas = k) ?plan () =
    run_case ~publish:true ?plan
      { (reliable (v3 ~nodes Policy.Manual)) with replicas }
      gen setup
  in
  (* The k=3 fault-free case; its WAL gives the phase times. *)
  let base = case () in
  let crash_at = (phase_entry base 2 +. phase_entry base 3) /. 2. in
  let restart_at = crash_at +. 0.5 in
  let crash_plan =
    Fault.Plan.make ~seed:1911
      ~crashes:
        (Fault.Plan.crash_replicas
           ~members:(Repl.Placement.members (Engine.placement (threev base)) 0)
           ~keep:crash_keep ~at:crash_at ~restart:restart_at)
      ()
  in
  let crash = case ~plan:crash_plan () in
  let crash_anoms = anomaly_count crash in
  let lag r = (Lazy.force r.staleness).Checker.Staleness.max_lag in
  (* Staleness stays bounded: the crash can add at most the outage window
     (plus advancement/settle slack) to the worst-case read lag. *)
  let lag_bound = lag base +. (restart_at -. crash_at) +. 1.0 in
  (* Global-2PC under the same data-node crash plan: no replica group to
     fail over to, so work touching the crashed nodes strands. *)
  let gpc =
    (drive ~plan:crash_plan (twopc ~deadlock_timeout:0.3 ~nodes ()) gen setup)
      .outcome
  in
  let manual_now = crash_at +. 1.9 in
  table
    ~title:"E14: k-way replication — quorum advancement, failover, recovery"
    ~params:[ "case" ]
    [
      advancements_or_wedged; failovers; stat "mirrors" "repl.mirrors";
      recoveries "repl.recoveries"; committed; unfinished; anomalies;
      max_lag;
    ]
    [
      ([ "k=1, fault-free" ], fun () -> case ~replicas:1 ());
      ([ "k=3, fault-free" ], Fun.const base);
      ( [
          Printf.sprintf "k=3, %d replicas down mid-advancement" (k - crash_keep);
        ],
        Fun.const crash );
    ]
    [
      Printf.sprintf
        "quorum advancement: the mid-phase-2 crash of %d of %d replicas \
         (group 0, [%.3fs, %.3fs)) %s — the poll completed on the \
         surviving replica, deferring only mirror traffic owed to the \
         crashed ones."
        (k - crash_keep) k crash_at restart_at
        (if
           (not crash.wedged)
           && Engine.advancements_completed (threev crash) >= 1
         then "did not block version advancement"
         else "BLOCKED version advancement");
      Printf.sprintf
        "checkers: %d anomalies across 1SR certification, atomic \
         visibility, exact version reads and final-store replay%s."
        crash_anoms
        (if crash_anoms = 0 then " — crash history certifies clean"
         else " — VIOLATIONS");
      Printf.sprintf
        "read staleness stayed bounded: max lag %.1f ms under the crash \
         vs %.1f ms fault-free (bound: outage + slack = %.1f ms) — %s."
        (1000. *. lag crash) (1000. *. lag base) (1000. *. lag_bound)
        (if lag crash <= lag_bound then "within bound" else "EXCEEDED");
      (* The crash case must reproduce bit-for-bit. *)
      replay_note "crash runs" crash (case ~plan:crash_plan ());
      Printf.sprintf
        "recovery: %d replica recoveries; a recovered replica serves \
         reads again only after its catch-up backlog drains and a \
         quiescence round certifies its frontier version \
         (readable-after-recovery)."
        (count crash "repl.recoveries");
      Printf.sprintf
        "global-2pc under the same crash plan: %d committed, %d unfinished — \
         the crashed nodes' locks and in-flight votes strand work at healthy \
         nodes; there is no replica to fail over to."
        gpc.Runner.committed gpc.Runner.unfinished;
      Printf.sprintf
        "manual versioning has no failover either: with its version publisher \
         down for 2s, reads still use version %d at the end of the outage (vs \
         %d healthy) — staleness grows with the outage, unbounded by any \
         protocol."
        (manual_read_version ~nodes ~outage:(crash_at, crash_at +. 2.0) ()
           manual_now)
        (manual_read_version ~nodes () manual_now);
      "";
      "Shape check: commuting updates mirror to every live group member";
      "through the ordinary counter matrices, so quiescence (R = C)";
      "already waits for mirrors; the quorum rule only excuses counter";
      "traffic owed to crashed replicas, never genuine subtransactions.";
    ]

(* E15: oracle-free liveness. Same six-node, two-group k=3 shape as E14,
   but every liveness decision — read failover, quorum participation,
   watchdog excusal — comes from the heartbeat failure detector instead of
   the fault injector's ground truth. Four cases: fault-free reference
   (whose WAL places the crash), a real replica crash the detector has to
   notice, the acceptance shape — that crash compounded with a
   false-suspicion storm (heartbeat loss on a live node of the healthy
   group, protocol traffic untouched) — and a one-way partition that cuts
   a node's outbound links only. Safety obligations: (a) a
   falsely-suspected live node never breaks advancement — its late counter
   replies fold in idempotently and all five checkers stay clean; (b) an
   undetected outage degrades to the watchdog/retransmit path rather than
   wedging. *)
let e15 =
  experiment "e15" "Oracle-free liveness — heartbeat failure detection"
    "§4.3 liveness, §6 availability; robustness extension"
  @@ fun ~quick ->
  let nodes = 6 and k = 3 in
  let crash_keep = 1 in
  let hb_period = 0.02 and hb_timeout = 0.08 in
  let gen = two_node_mix ~nodes 400. in
  let setup = setup ~seed:211 ~settle:6.0 (if quick then 2.0 else 3.0) in
  let case ?plan () =
    run_case ~publish:true ?plan
      {
        (reliable (v3 ~nodes Policy.Manual)) with
        replicas = k;
        hb_period;
        hb_timeout;
        (* The watchdog is the degradation path for outages the detector
           has not (yet) noticed, so it stays armed. *)
        phase_deadline = 0.5;
      }
      gen setup
  in
  (* Fault-free reference: its WAL supplies the phase-entry times so the
     crash provably lands inside phase 2's quiescence wait. *)
  let reference = case () in
  let crash_at = (phase_entry reference 2 +. phase_entry reference 3) /. 2. in
  let restart_at = crash_at +. 0.5 in
  let crashes =
    Fault.Plan.crash_replicas
      ~members:(Repl.Placement.members (Engine.placement (threev reference)) 0)
      ~keep:crash_keep ~at:crash_at ~restart:restart_at
  in
  (* The acceptance shape: the same real crash plus a heartbeat-loss storm
     on a live node of the {e healthy} group, overlapping the crash window
     — the detector now faces a real outage and a lie at the same time. *)
  let storm_node = k in
  let storm_plan =
    Fault.Plan.make ~seed:2111 ~crashes
      ~rules:
        (Fault.Plan.heartbeat_loss ~src:storm_node
           ~from_:(crash_at -. 0.1) ~until_:(restart_at +. 0.3) ())
      ()
  in
  let crash = case ~plan:(Fault.Plan.make ~seed:2111 ~crashes ()) () in
  let storm = case ~plan:storm_plan () in
  (* One-way partition: one healthy-group node keeps hearing the cluster
     but is never heard (outbound-only cut, heartbeats included). *)
  let oneway =
    case
      ~plan:
        (Fault.Plan.make ~seed:2111
           ~rules:
             (Fault.Plan.partition_set ~universe:(nodes + 1) ~set:[ storm_node ]
                ~oneway:true ~from_:crash_at ~until_:(crash_at +. 0.3) ())
           ())
      ()
  in
  let storm_anoms = anomaly_count storm in
  let full_commit =
    let o = storm.outcome in
    o.Runner.unfinished = 0 && o.Runner.committed > 0
    && o.Runner.committed + o.Runner.aborted = o.Runner.submitted
  in
  table
    ~title:
      "E15: oracle-free liveness — heartbeat detection, suspicion, \
       watchdog"
    ~params:[ "case" ]
    [
      advancements_or_wedged; stat "suspicions" "fd.suspicions";
      stat "confirmed" "fd.confirmed"; recoveries "fd.recoveries";
      failovers; committed; unfinished; anomalies; max_lag;
    ]
    [
      ([ "k=3, fd on, fault-free" ], Fun.const reference);
      ( [ Printf.sprintf "k=3, %d replicas down (detected)" (k - crash_keep) ],
        Fun.const crash );
      ([ "k=3, crash + false-suspicion storm" ], Fun.const storm);
      ([ "k=3, one-way partition (outbound cut)" ], Fun.const oneway);
    ]
    [
      Printf.sprintf
        "liveness without the oracle: every routing, quorum and watchdog \
         decision above came from heartbeat suspicion (period %gs, base \
         horizon %gs); the fault plan is invisible to the protocol."
        hb_period hb_timeout;
      Printf.sprintf
        "real crash: the detector suspected the %d crashed replicas (%d \
         suspicions, %d escalated to confirmed-down before their restart \
         re-earned trust), advancement %s."
        (k - crash_keep)
        (count crash "fd.suspicions")
        (count crash "fd.confirmed")
        (if crash.wedged then "WEDGED" else "completed past the outage");
      Printf.sprintf
        "false-suspicion storm: node %d stayed alive while its heartbeats \
         were dropped; its late counter replies folded in idempotently — \
         %d committed, %d unfinished, %d anomalies across all five \
         checkers%s."
        storm_node storm.outcome.Runner.committed
        storm.outcome.Runner.unfinished storm_anoms
        (if storm_anoms = 0 && full_commit then
           " — the full workload commits clean (obligation a)"
         else " — VIOLATIONS");
      Printf.sprintf
        "one-way partition: outbound-only silence still earns suspicion \
         (%d suspicions) because evidence, not reachability, drives the \
         detector; %d anomalies."
        (count oneway "fd.suspicions")
        (anomaly_count oneway);
      (* The storm run — real crash and a lied-about live node at once —
         must replay bit-for-bit. *)
      replay_note
        ~identical:" — the detector is deterministic from the sim clock"
        "storm runs" storm
        (case ~plan:storm_plan ());
      Printf.sprintf
        "fault-free cost: %d heartbeats for %d suspicions — a quiet \
         detector is pure overhead, ~%d messages/advancement."
        (count reference "fd.heartbeats_sent")
        (count reference "fd.suspicions")
        (count reference "fd.heartbeats_sent"
        / max 1 (Engine.advancements_completed (threev reference)));
      (if
         List.for_all
           (fun r -> anomaly_count r = 0)
           [ reference; crash; storm; oneway ]
       then "all four cases certify clean across all five checkers."
       else "CHECKER VIOLATIONS PRESENT — see anomaly column.");
      "";
      "Obligation (b) — an outage the detector cannot see (heartbeats";
      "fine, node dead) is exercised in test_fd: the watchdog's bounded";
      "resend plus the reliable channel's retransmission carry the";
      "advancement once the node restarts; nothing here waits on ground";
      "truth.";
    ]

(* A1: the two-wave stable-property check vs trusting a single matching
   poll. We count poll rounds (the cost) and unsound declarations caught by
   the oracle (the risk). *)
let a1 =
  experiment "a1" "Ablation: two-wave quiescence detection"
    "§4.3 phase 2, [8,12,9]"
  @@ fun ~quick ->
  let nodes = 4 in
  let gen =
    Workload.Hospital.generator
      {
        (Workload.Hospital.default ~nodes) with
        Workload.Hospital.arrival_rate = 800.;
        visit_fanout = 3;
        post_delay = 0.02;
      }
  in
  let run mode two_wave =
    ( [ mode ],
      fun () ->
        drive
          (V3
             {
               (v3 ~latency:(Latency.Exponential 0.02) ~nodes
                  (Policy.Periodic 0.1))
               with
               two_wave_quiescence = two_wave;
               debug_checks = false (* record, don't crash *);
             })
          gen
          (setup ~seed:111 ~settle:3.0 (if quick then 1.0 else 4.0)) )
  in
  let polls = "proto.polls" in
  table ~title:"A1: quiescence detection — two-wave vs single matching poll"
    ~params:[ "mode" ]
    [
      advancements;
      stat "poll rounds" polls;
      column "polls/advancement" (fun r ->
          let advs = Engine.advancements_completed (threev r) in
          Printf.sprintf "%.1f"
            (if advs = 0 then 0.
             else float_of_int (count r polls) /. float_of_int advs));
      stat "unsound declarations" "proto.unsound_quiescence";
      partial_reads;
    ]
    [ run "two-wave (paper)" true; run "single poll" false ]
    [
      "Finding: with hierarchical completion notices (each subtransaction";
      "terminates only after its children, as in the paper's Table 1),";
      "even a single matching poll was never observed to declare early —";
      "the counters' increment-before-send discipline closes the classic";
      "in-flight-message window. The two-wave check of the cited";
      "stable-property literature costs only about one extra poll round";
      "per phase and is kept as the default.";
    ]

(* A2: finishing an advancement without GC acknowledgements breaks the
   three-version bound. *)
let a2 =
  experiment "a2" "Ablation: GC acknowledgements" "§4.4 property 2a"
  @@ fun ~quick ->
  let nodes = 5 in
  let gen =
    Workload.Hospital.generator
      {
        (Workload.Hospital.default ~nodes) with
        Workload.Hospital.arrival_rate = 1500.;
      }
  in
  let run mode acks =
    ( [ mode ],
      fun () ->
        drive
          (V3
             {
               (v3 ~latency:(Latency.Exponential 0.01) ~nodes
                  (Policy.Periodic 0.02))
               with
               poll_interval = 0.005;
               await_gc_acks = acks;
               debug_checks = acks;
             })
          gen
          (setup ~seed:121 ~settle:3.0 (if quick then 1.5 else 4.0)) )
  in
  table ~title:"A2: GC acknowledgement — why the ≤3-version bound needs it"
    ~params:[ "mode" ]
    [ advancements; max_versions; bound_holds ]
    [ run "await GC acks (sound)" true; run "fire-and-forget GC" false ]
    [
      "Without the acknowledgement, the next advancement can start while a";
      "garbage-collection notice is still in flight; a node then creates a";
      "version-(v+1) copy before dropping version v-2, and an item";
      "transiently holds four versions. Waiting for the acks restores the";
      "paper's §4.4 property 2(a).";
    ]

(* A3: the §2.3 dual write is what keeps the new version consistent when a
   straggler updates an item that already has a newer copy. *)
let a3 =
  experiment "a3" "Ablation: dual writes" "§2.3" @@ fun ~quick ->
  let nodes = 4 in
  let gen =
    Workload.Hospital.generator
      {
        (Workload.Hospital.default ~nodes) with
        Workload.Hospital.arrival_rate = 800.;
        visit_fanout = 3;
        post_delay = 0.03 (* plenty of stragglers *);
      }
  in
  (* Published, then replay-checked against the settled store. *)
  let run mode dual =
    ( [ mode ],
      fun () ->
        drive ~publish:true
          (V3
             {
               (v3 ~latency:(Latency.Exponential 0.015) ~nodes
                  (Policy.Periodic 0.08))
               with
               dual_writes = dual;
             })
          gen
          (setup ~seed:131 ~settle:3.0 (if quick then 1.5 else 4.0)) )
  in
  table ~title:"A3: dual writes — dropping them silently loses updates"
    ~params:[ "mode" ]
    [
      int_column "committed updates" (fun r ->
          List.length (committed_updates r));
      dual_writes;
      int_column "replay mismatches" (fun r ->
          Option.fold ~none:0
            ~some:(fun p -> p.Checker.Replay.mismatch_count)
            (Lazy.force r.certified).Certify.replay);
    ]
    [ run "dual writes (paper §2.3)" true; run "own-version only" false ]
    [
      "With dual writes off, a straggler's update lands only in its own";
      "(old) version; when that version is garbage-collected the newer";
      "copy — which never saw the write — survives, and the final store";
      "no longer replays the committed history: charges vanish from the";
      "bill exactly as the paper's §2.3 analysis predicts.";
    ]

(* A4: retransmission. The advancement protocol never re-sends within a
   round on its own — a phase broadcast is sent once, a poll round awaits
   every reply — so without the channel-level retransmission a single lost
   protocol message blocks the coordinator forever. *)
let a4 =
  experiment "a4" "Ablation: retransmission under loss"
    "§4.3 liveness under an unreliable network"
  @@ fun ~quick ->
  let nodes = 4 in
  let gen = two_node_mix ~nodes 400. in
  let setup = setup ~seed:167 ~settle:6.0 (if quick then 1.5 else 3.0) in
  let plan =
    Fault.Plan.make ~seed:1671 ~rules:(Fault.Plan.uniform_loss ~drop:0.08 ()) ()
  in
  let run mode retransmit =
    ( [ mode ],
      fun () ->
        drive ~plan
          (V3 { (reliable (v3 ~nodes (Policy.Periodic 0.2))) with retransmit })
          gen setup )
  in
  table
    ~title:"A4: retransmission — without it, message loss stalls advancement"
    ~params:[ "mode" ]
    [ advancements; committed; unfinished; retransmits; drops ]
    [ run "retransmit (sound)" true; run "no retransmit" false ]
    [
      "With retransmission off, the first lost phase broadcast, ack or";
      "poll reply leaves the coordinator waiting forever: advancement";
      "stalls (0 or near-0 completions) and transactions whose remote";
      "subtransactions were dropped never finish. With it on, the same";
      "loss pattern costs only duplicate bandwidth.";
    ]

(* ------------------------------------------------------------ registry *)

let all =
  [
    t1; f1; f2; e1; e2; e3; e4; e5; e6; e7; e8; e10; e11; e12; e13; e14; e15;
    e9; a1; a2; a3; a4;
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> e.id = id) all
