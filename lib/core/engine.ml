module Sim = Simul.Sim
module Ivar = Simul.Ivar
module Mailbox = Simul.Mailbox
module Semaphore = Simul.Semaphore
module Network = Netsim.Network
module Latency = Netsim.Latency
module Reliable = Netsim.Reliable
module Heartbeat = Netsim.Heartbeat
module Detector = Fd.Detector
module Injector = Fault.Injector
module Mvstore = Store.Mvstore
module Spec = Txn.Spec
module Op = Txn.Op
module Value = Txn.Value
module Result = Txn.Result
module Lockmgr = Txn.Lockmgr
module Counter_set = Stats.Counter_set

type config = {
  nodes : int;
  shards : int;
      (** number of independent advancement domains [S]: nodes are
          partitioned into [S] contiguous blocks of [nodes / S] members,
          each with its own coordinator, write-ahead log and (vu, vr)
          frontier, so advancement cost is O(nodes-per-shard) per shard
          instead of O(all nodes) through one choke point. Shards are laid
          {e over} replica groups ([nodes / S] must be a multiple of
          [replicas]), so quorum polling stays per-shard. [1] — the
          default — collapses to the single global coordinator and keeps
          historical schedules byte-identical. Update transactions must
          stay within one shard; cross-shard reads are assigned a
          consistent per-shard read-version vector by {!Shard.Rvector} *)
  replicas : int;
      (** replication factor [k]: nodes are partitioned into groups of [k]
          consecutive replicas ({!Repl.Placement}); commuting updates are
          mirrored to every group member, reads fail over along the group,
          and counter polls complete on a quorum (≥ 1 live replica per
          group). [1] — the default — disables every replication code path,
          keeping historical schedules byte-identical *)
  hb_period : float;
      (** heartbeat send cadence; [0.] — the default — disables the failure
          detector entirely: no side network is created, no daemons are
          spawned, no messages are sent, and every liveness decision falls
          back to the injector's instantaneous ground truth, keeping
          historical schedules byte-identical. When positive, every node
          beats the coordinator this often over a dedicated side network
          and all protocol liveness (routing, quorum participation,
          watchdog excusal) is derived from heartbeat arrival deadlines
          ({!Fd.Detector}) — suspicion, not omniscience *)
  hb_timeout : float;
      (** minimum heartbeat silence before the detector first suspects a
          node; must exceed [hb_period] when the detector is on *)
  latency : Latency.t;
  think_time : float;
  poll_interval : float;
  phase_deadline : float;
      (** stall watchdog: if an advancement phase makes no progress for this
          long the coordinator records [proto.phase_stalled] and re-broadcasts
          the phase message to the nodes still owing a reply, escalating with
          doubled (bounded) backoff. [infinity] disables the watchdog
          entirely — the daemon is not even spawned, so fault-free schedules
          are untouched. *)
  policy : Policy.t;
  nc_mode : bool;
  deadlock_timeout : float;
  abort_probability : float;
  debug_checks : bool;
  (* Ablation switches — all default to the sound protocol; turning one off
     demonstrates why the corresponding mechanism exists (experiments
     A1-A3). *)
  two_wave_quiescence : bool;
      (** require two identical matching polls before declaring a version
          consistent; [false] trusts a single matching poll *)
  await_gc_acks : bool;
      (** finish an advancement only after every node acknowledged garbage
          collection; [false] lets the next advancement overlap in-flight
          GC notices *)
  dual_writes : bool;
      (** straggler writes update every version ≥ theirs (§4.1 step 4);
          [false] writes only the transaction's own version *)
  (* Message-layer hardening: required whenever a fault plan can lose or
     duplicate messages; off by default so fault-free runs keep their exact
     historical schedules (acks would consume extra latency samples). *)
  reliable_channel : bool;
      (** sequence numbers + acks + receive-side dedup on every message *)
  retransmit : bool;
      (** re-send unacknowledged messages (only meaningful with
          [reliable_channel]; ablation A4 turns it off) *)
  retransmit_timeout : float;  (** first retransmission delay *)
  expected_inbox_depth : int;
      (** pre-size for each node's network inbox ring (messages); derive
          from the configured arrival rate for steady-state benches. Purely
          a capacity hint — never affects schedules. *)
}

let default_config ~nodes =
  {
    nodes;
    shards = 1;
    replicas = 1;
    hb_period = 0.;
    hb_timeout = 0.1;
    latency = Latency.Constant 0.005;
    think_time = 0.0001;
    poll_interval = 0.01;
    phase_deadline = infinity;
    policy = Policy.Manual;
    nc_mode = false;
    deadlock_timeout = 1.0;
    abort_probability = 0.;
    debug_checks = true;
    two_wave_quiescence = true;
    await_gc_acks = true;
    dual_writes = true;
    reliable_channel = false;
    retransmit = true;
    retransmit_timeout = 0.05;
    expected_inbox_depth = 16;
  }

type vote = Vote_commit | Vote_abort of string

type root_submit = {
  rs_spec : Spec.t;
  rs_submit_time : float;
  rs_result : Result.t Ivar.t;
  mutable rs_root_commit : float;
  mutable rs_compensated : bool;
}

type msg =
  | Subtxn of {
      txn_id : int;
      label : string;
      kind : Spec.kind;
      version : int;  (** -1 on root messages; assigned on arrival *)
      source : int;
      parent : (int * int) option;  (** (parent node, parent pending id) *)
      tree : Spec.subtxn;
      root : root_submit option;
      compensating : bool;
      vector : int array option;
          (** cross-shard read transactions only: the per-shard read
              version vector {!Shard.Rvector} assigned at submission.
              [None] on every other path (always [None] at [shards = 1]) *)
    }
  | Completion of {
      pending_id : int;
      child_label : string;
      reads : (string * Value.t) list;
      vote : vote;
      nodes : int list;
    }
  | Cleanup of { txn_id : int }
  | Decision of { txn_id : int; commit : bool }
  | Start_advancement of { vu_new : int }
  | Adv_ack of { from_node : int; vu : int }
  | Advance_read of { vr_new : int }
  | Read_ack of { from_node : int; vr : int }
  | Counter_query of { version : int; round : int; epoch : int }
  | Counter_reply of {
      from_node : int;
      version : int;
      round : int;
      epoch : int;
          (** polls are namespaced by coordinator epoch: a restarted
              coordinator resets its round counter, so a pre-crash round-k
              reply must not satisfy the post-restart round k *)
      r_row : int array;
      c_col : int array;
    }
  | Mirror of { txn_id : int; version : int; source : int; op : Op.t }
      (** group-addressed replica mirror of one committed commuting write:
          the receiving replica applies [op] to its own store with the
          dual-write rule and balances the counter pair the source opened.
          Mirrors never spawn children and never reply — quiescence (R = C)
          is what tells the coordinator they all landed *)
  | Do_gc of { keep : int }
  | Gc_ack of { from_node : int; keep : int }
  | Coord_wake
      (** zero-payload self-send fired at coordinator restart: unblocks a
          coordinator parked in [recv] so it can observe the crash and
          re-drive the in-flight advancement from its WAL *)

type pending = {
  p_id : int;
  p_txn : int;
  p_label : string;
  p_kind : Spec.kind;
  p_version : int;
  p_source : int;
  p_parent : (int * int) option;
  p_compensating : bool;
  mutable p_outstanding : int;
  mutable p_local_done : bool;
  mutable p_reads : (string * Value.t) list;  (** accumulated, in order *)
  mutable p_vote : vote;
  mutable p_nodes : int list;
  mutable p_buffered : (string * Op.t) list;  (** NC write intentions, reversed *)
  p_root : root_submit option;
  p_vector : int array option;  (** see {!msg.Subtxn.vector} *)
}

type node = {
  id : int;
  shard : int;  (** owning shard ([id / (nodes / shards)]); 0 at [shards = 1] *)
  name : string;
  mutable vu : int;
  mutable vr : int;
  store : Value.t Mvstore.t;
  cnt : Counters.t;
  locks : Lockmgr.t;
  local_cc : Semaphore.t;
  pendings : (int, pending) Hashtbl.t;
  mutable next_pending : int;
  mutable vr_waiters : (unit -> unit) list;
  nc_awaiting : (int, int list ref) Hashtbl.t;
      (** txn id -> pending ids at this node awaiting a 2PC decision *)
  mutable paused_until : float;
      (** fault injection: the node processes no messages before this time *)
}

(* An armed stall watchdog: one per in-flight coordinator wait. The
   watchdog daemon re-invokes [w_resend] whenever the deadline passes
   without the wait completing, doubling the interval (bounded) each
   time. *)
type watch = {
  w_what : string;
  mutable w_deadline : float;
  mutable w_interval : float;
  w_resend : unit -> unit;
}

(* The failure-detector subsystem, present only when [hb_period > 0]: the
   heartbeat side network plus the suspicion state machine fed from it. *)
type fd_state = { hb : Heartbeat.t; det : Detector.t }

(* One shard's coordinator: the complete volatile + durable advancement
   state that used to live globally on [t]. Shard [s] owns the contiguous
   node block [cs_lo, cs_lo + cs_n) and the network endpoint
   [nodes + s]; at [shards = 1] there is exactly one of these and every
   field carries its historical meaning (endpoint [nodes], all nodes). *)
type coord = {
  cs_shard : int;
  cs_id : int;  (** network endpoint: [cfg.nodes + cs_shard] *)
  cs_lo : int;  (** first member node id *)
  cs_n : int;  (** member count ([cfg.nodes / cfg.shards]) *)
  cs_name : string;  (** trace site: ["coord"] at [shards = 1] *)
  cs_trigger : unit Ivar.t option Mailbox.t;
  cs_clog : Coord_log.t;  (** durable: survives coordinator crashes *)
  cs_live : Vwindow.t;  (** version -> requested-but-unterminated, this shard *)
  mutable cs_epoch : int;  (** bumped on each coordinator recovery *)
  mutable cs_crash_gen : int;
      (** incremented by the crash hook; compared against [cs_seen_gen]
          so the coordinator fiber notices a crash at its next check *)
  mutable cs_seen_gen : int;
  mutable cs_down_until : float;
  mutable cs_watch : watch option;
  mutable cs_vu : int;
  mutable cs_vr : int;
  mutable cs_poll_round : int;
  cs_poll_bufs : (int array array * int array array) array;
      (** two (r, c) matrix pairs, alternated by poll-round parity. The
          quiescence loop only ever compares a round against the previous
          one, so exactly two generations are live at once; reusing two
          pre-allocated pairs removes the 2·m² fresh-matrix allocation per
          poll round (megabytes of major-heap churn per round at 512+
          nodes). Sized per shard: m = members, and a reply's nodes-wide
          row/column is sliced to the shard's block (cross-shard counter
          pairs are structurally zero — update trees never leave their
          shard and read entries open self pairs on arrival). No zeroing
          between rounds: a reply folds in by fully rewriting its R row
          and C column, and [matrices_agree ~considered] reads only
          rows/columns of members that replied. *)
  mutable cs_advancements : int;
  mutable cs_updates_since_trigger : int;
  mutable cs_divergence_since_trigger : float;
      (** accumulated |write delta| since the last advancement trigger
          (drives the Divergence policy) *)
}

type t = {
  sim : Sim.t;
  cfg : config;
  net : msg Reliable.packet Network.t;
  ch : msg Reliable.t;
  faults : Injector.t;
  nodes : node array;
  per_shard : int;  (** [cfg.nodes / cfg.shards] *)
  cs : coord array;  (** one coordinator per shard; singleton at [shards = 1] *)
  rvec : Shard.Rvector.t option;
      (** cross-shard read-vector service; [None] at [shards = 1] so the
          single-coordinator configuration touches none of its code *)
  rvec_assigned : (int, int array) Hashtbl.t;
      (** txn id -> assigned read vector, retained for post-hoc
          certification (the version-read checker fences each key by its
          shard's component, not the root's). Only vectored cross-shard
          reads enter; empty at [shards = 1]. *)
  repl : Repl.Placement.t;
      (** replica-group placement; singleton groups when [replicas = 1] *)
  recovery : Repl.Recovery.t;  (** readable-after-recovery gates *)
  fd : fd_state option;  (** heartbeat failure detector; [None] when off *)
  trace : Trace.t option;
  counters_live : Counter_set.t;
}

(* -------------------------------------------------------------- tracing *)

(* [Printf.ksprintf] rather than [Format.kasprintf]: every [tr] format uses
   only %s/%d/%g, where the two render identically, and Printf skips the
   pretty-printing engine — measured ~3x cheaper per emission, which is the
   difference between tracing costing ~40%% of a traced bench run and ~15%%. *)
let tr t site fmt =
  match t.trace with
  | None -> Printf.ikfprintf (fun () -> ()) () fmt
  | Some trace ->
      Printf.ksprintf
        (* lint: trace-ok — [tr] is itself the guard: this branch only
           exists when a trace is attached. *)
        (fun what -> Trace.emit trace ~time:(Sim.now t.sim) ~site what)
        fmt

(* Deferred variant for the hottest emission sites: even on a traced run,
   the ring retains only the final [capacity] events, so rendering at
   emission time formats strings that are overwhelmingly evicted unread.
   [trl] hands {!Trace.emit_deferred} a thunk instead; only retained events
   ever pay the sprintf. The thunk must be pure — call sites let-bind any
   mutable reads (counter values, version fields) {e before} building the
   closure so the rendered text reflects emission-time state. *)
let trl t site msg =
  match t.trace with
  | None -> ()
  | Some trace ->
      (* lint: trace-ok — [trl] is itself the guard: this branch only
         exists when a trace is attached. *)
      Trace.emit_deferred trace ~time:(Sim.now t.sim) ~site msg

(* Hot-path guard: [tr] discards the format string without rendering it, but
   its {e arguments} are still evaluated at the call site. Per-operation and
   per-message traces below are wrapped in [if tracing t] so an untraced run
   pays nothing — not even the counter lookups feeding the format args.
   Tracing never affects scheduling, so guarded and unguarded runs produce
   identical event schedules. *)
let[@inline] tracing t = t.trace <> None

let node_name t i =
  if i >= t.cfg.nodes then t.cs.(i - t.cfg.nodes).cs_name else t.nodes.(i).name

(* The endpoint a node's protocol replies go to: its own shard's
   coordinator. [cfg.nodes] at [shards = 1] — the historical value. *)
let[@inline] coord_ep t node = t.cfg.nodes + node.shard

(* ------------------------------------------------- oracle & counters *)

(* Live-subtransaction tallies are per shard: each shard's version
   timeline is independent, and quiescence only ever asks about the
   asking shard's own versions. *)
let live_bump t node version delta = Vwindow.add t.cs.(node.shard).cs_live version delta

let live_subtxns t ~version =
  Array.fold_left (fun acc cs -> acc + Vwindow.get cs.cs_live version) 0 t.cs

(* Node counter rows are shard-local, [t.per_shard] entries wide: update
   confinement means a node only ever opens counter pairs with members of
   its own shard (cross-shard reads open {e self} pairs at the entry node),
   so the peer index into a row is the peer's offset inside the shard
   block. At [shards = 1] this is the identity and rows are nodes-wide —
   the historical layout. Keeping rows per-shard makes every counter
   snapshot a poll reply carries O(per) instead of O(nodes), which is
   where a sharded advancement's machine cost would otherwise hide. *)
let[@inline] cnt_ix t node peer = peer - (node.shard * t.per_shard)

(* R(v) node->dst : incremented before a request is issued. *)
let bump_r t node ~version ~dst =
  Counters.incr_r node.cnt ~version ~dst:(cnt_ix t node dst);
  live_bump t node version 1

(* C(v) src->node : incremented when a subtransaction terminates here. *)
let bump_c t node ~version ~src =
  Counters.incr_c node.cnt ~version ~src:(cnt_ix t node src);
  live_bump t node version (-1)

let cstat t name = Counter_set.incr t.counters_live name ()

(* Distinct version numbers with live counter state anywhere — the paper's
   "three distinct numbers suffice" observation (§4). *)
(* Dedup while folding: the union holds ≤ 4-ish versions, so linear
   membership beats building a 3n-element list and sort_uniq-ing it —
   this runs on every Start_advancement/Do_gc receipt under debug_checks,
   i.e. O(nodes) times per advancement. *)
let add_distinct v acc = if List.exists (fun w -> w = v) acc then acc else v :: acc

(* Fold [f] over the counter version sets of one shard's members —
   or of every node when [shard] is the full range (the [shards = 1]
   configuration and the public engine-wide probe). Each shard's version
   timeline is independent, so the paper's ≤ 3 bound is a per-shard
   statement; the global union is only meaningful at [shards = 1]. *)
let window_over t ~lo ~n f init =
  let acc = ref init in
  for i = lo to lo + n - 1 do
    acc := Counters.fold_versions t.nodes.(i).cnt f !acc
  done;
  !acc

let version_window_shard t ~lo ~n =
  window_over t ~lo ~n add_distinct [] |> List.sort Int.compare

let version_window t = version_window_shard t ~lo:0 ~n:t.cfg.nodes

(* Same, but only over replicas that are currently up. While a replica is
   crashed its durable counters freeze, so a quorum advancement running
   ahead of the outage transiently widens the engine-wide window with the
   dead replica's stale versions; restart adopts the group's GC floor
   ({!restart_recover}) and shrinks it back. The paper's three-version
   bound is a statement about live state. *)
let live_version_window_shard t ~lo ~n =
  let now = Sim.now t.sim in
  let acc = ref [] in
  for i = lo to lo + n - 1 do
    let node = t.nodes.(i) in
    (* lint: oracle-ok — a debug-check assertion about genuinely live
       state (the paper's three-version bound), not a protocol decision:
       ground truth is the point here. *)
    if not (Injector.down t.faults ~node:node.id ~at:now) then
      acc := Counters.fold_versions node.cnt add_distinct !acc
  done;
  List.sort Int.compare !acc

let check_version_window_shard t ~shard =
  if t.cfg.debug_checks then begin
    let lo = shard * t.per_shard and n = t.per_shard in
    let window =
      if t.cfg.replicas > 1 then live_version_window_shard t ~lo ~n
      else version_window_shard t ~lo ~n
    in
    if List.length window > 3 then
      failwith
        (Printf.sprintf
           "3V invariant violation: %d distinct versions live (%s) in shard \
            %d; version numbers could not be re-used mod 3"
           (List.length window)
           (String.concat "," (List.map string_of_int window))
           shard)
  end

(* ------------------------------------------------------------ helpers *)

let send t ~src ~dst msg = Reliable.send t.ch ~src ~dst msg

let combine_vote a b =
  match (a, b) with Vote_abort r, _ -> Vote_abort r | _, v -> v

let merge_nodes a b = List.sort_uniq Int.compare (a @ b)

(* ---------------------------------------------------------- replication *)

let[@inline] repl_on t = t.cfg.replicas > 1

(* Liveness as the protocol sees it. With the failure detector on, a node
   is "live" iff it is not under heartbeat suspicion — inferred state that
   can be wrong in both directions, which is exactly what a deployable
   system has to work with: a falsely-suspected node's late replies still
   fold in idempotently, and an unsuspected-but-dead node degrades to the
   watchdog/retransmit path. With the detector off (legacy configurations),
   liveness falls back to the injector's {e instantaneous} ground truth;
   the future-peek at [now +. margin] that earlier revisions used is gone —
   no deployable system can evaluate a fault plan at a future instant. *)
let node_live t i =
  match t.fd with
  | Some fd -> not (Detector.suspected fd.det ~node:i ~now:(Sim.now t.sim))
  | None ->
      (* lint: oracle-ok — legacy fallback for detector-less configs; the
         only remaining protocol-path ground-truth read, and it is
         instantaneous. *)
      not (Injector.down t.faults ~node:i ~at:(Sim.now t.sim))

(* Routing liveness is plain protocol liveness. *)
let route_live = node_live

(* Readable-after-recovery: a replica whose gate is armed serves reads only
   once (a) the reliable channel has drained every packet still owed to it —
   the retransmitted mirrors it slept through — and (b) its read version
   reached the recovery frontier, i.e. a full quiescence round certified the
   suspect update version with this replica participating. Order matters:
   the drain test runs first so the gate is not cleared while catch-up
   traffic is still in flight. *)
let replica_readable t m =
  match Repl.Recovery.frontier t.recovery ~node:m with
  | None -> true
  | Some _ ->
      Reliable.unacked_to t.ch ~dst:m = 0
      && Repl.Recovery.readable t.recovery ~node:m ~vr:t.nodes.(m).vr

(* Route a spec through the replica groups: each subtransaction's target is
   replaced by the first live replica in its group's failover order (reads
   additionally require the readable-after-recovery gate to be open). A
   fully-dead group keeps the original target — the transaction then waits
   for a restart, which is the correct availability statement once all k
   replicas are gone. Non-commuting transactions are pinned to their
   primaries: an overwrite needs inter-replica ordering, which is exactly
   what commuting replication does not buy (§10 of PROTOCOL.md). *)
let route_spec t (spec : Spec.t) =
  if not (repl_on t) then spec
  else
    match spec.Spec.kind with
    | Spec.Non_commuting -> spec
    | Spec.Read_only | Spec.Commuting ->
        let changed = ref false in
        let choose i =
          let ok m =
            route_live t m
            && (spec.Spec.kind <> Spec.Read_only || replica_readable t m)
          in
          match List.find_opt ok (Repl.Placement.failover_order t.repl i) with
          | Some m ->
              if m <> i then begin
                changed := true;
                cstat t "repl.failovers"
              end;
              m
          | None -> i
        in
        let rec map (st : Spec.subtxn) =
          let node = choose st.Spec.node in
          { st with Spec.node; Spec.children = List.map map st.Spec.children }
        in
        let root = map spec.Spec.root in
        if !changed then { spec with Spec.root = root } else spec

(* Inverse of a commuting subtransaction tree, for compensation (§3.2).
   Reads are dropped; Incr is negated; Append appends an undo marker. *)
let rec invert_tree (st : Spec.subtxn) : Spec.subtxn =
  let invert_op = function
    | Op.Read _ -> None
    | Op.Incr (k, d) -> Some (Op.Incr (k, -.d))
    | Op.Append (k, e) -> Some (Op.Append (k, "undo:" ^ e))
    | Op.Overwrite _ ->
        invalid_arg "Engine: cannot compensate a non-commuting write"
  in
  {
    st with
    Spec.ops = List.filter_map invert_op st.Spec.ops;
    Spec.children = List.map invert_tree st.Spec.children;
  }

let pp_int_list versions =
  String.concat "," (List.map string_of_int versions)

(* §1's value-divergence advancement policy: accumulate the magnitude of
   applied write deltas and trigger once it crosses the threshold. *)
let op_magnitude = function
  | Op.Read _ | Op.Append _ -> 0.
  | Op.Incr (_, d) -> Float.abs d
  | Op.Overwrite (_, a) -> Float.abs a

(* Divergence accumulates in the shard where the write landed: each
   shard's coordinator advances on its own data's staleness. *)
let note_divergence t node op =
  match t.cfg.policy with
  | Policy.Divergence threshold ->
      let cs = t.cs.(node.shard) in
      cs.cs_divergence_since_trigger <-
        cs.cs_divergence_since_trigger +. op_magnitude op;
      if cs.cs_divergence_since_trigger >= threshold then begin
        cs.cs_divergence_since_trigger <- 0.;
        Mailbox.send cs.cs_trigger None
      end
  | Policy.Manual | Policy.Periodic _ | Policy.Every_n_updates _ -> ()

(* ----------------------------------------------------- NC 2PC decision *)

(* Apply a 2PC decision for [txn_id] at [node]: materialize or discard the
   buffered writes of every awaiting subtransaction, bump their completion
   counters atomically with the outcome, and release the locks. *)
let apply_decision t node ~txn_id ~commit =
  match Hashtbl.find_opt node.nc_awaiting txn_id with
  | None -> ()
  | Some ids ->
      Hashtbl.remove node.nc_awaiting txn_id;
      List.iter
        (fun pid ->
          match Hashtbl.find_opt node.pendings pid with
          | None -> ()
          | Some p ->
              Hashtbl.remove node.pendings pid;
              if commit then
                List.iter
                  (fun (key, op) ->
                    ignore
                      (Mvstore.write_exact node.store ~key ~version:p.p_version
                         ~init:Value.empty ~f:(Op.apply op ~txn:p.p_txn));
                    note_divergence t node op)
                  (List.rev p.p_buffered);
              bump_c t node ~version:p.p_version ~src:p.p_source;
              if tracing t then begin
                let cv =
                  Counters.c node.cnt ~version:p.p_version
                    ~src:(cnt_ix t node p.p_source)
                in
                trl t node.name (fun () ->
                    Printf.sprintf "nc subtx %s %s; C%d[%s->%s]=%d" p.p_label
                      (if commit then "commits" else "aborts")
                      p.p_version (node_name t p.p_source) node.name cv)
              end)
        (List.rev !ids);
      Lockmgr.release_all node.locks ~owner:txn_id

(* ------------------------------------------------ subtxn execution *)

(* NC3V root admission (§5 step 2): wait until vu = vr + 1 locally, i.e.
   until no version advancement is in progress for the assigned version. *)
let rec wait_nc_admission t node version =
  if version = node.vr + 1 then ()
  else begin
    Sim.suspend t.sim (fun waker ->
        node.vr_waiters <- (fun () -> waker ()) :: node.vr_waiters);
    wait_nc_admission t node version
  end

let wake_vr_waiters node =
  let ws = List.rev node.vr_waiters in
  node.vr_waiters <- [];
  List.iter (fun w -> w ()) ws

(* Strongest lock mode needed per key by the given ops, for [kind]. *)
let lock_plan ~kind ops =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun op ->
      let key = Op.key op in
      let mode =
        match (kind, Op.is_write op) with
        | Spec.Non_commuting, _ -> Lockmgr.Non_commute
        | Spec.Commuting, true -> Lockmgr.Commute_update
        | Spec.Commuting, false -> Lockmgr.Commute_read
        | Spec.Read_only, _ -> Lockmgr.Commute_read
      in
      let stronger a b =
        match (a, b) with
        | Lockmgr.Non_commute, _ | _, Lockmgr.Non_commute -> Lockmgr.Non_commute
        | Lockmgr.Commute_update, _ | _, Lockmgr.Commute_update ->
            Lockmgr.Commute_update
        | _ -> Lockmgr.Commute_read
      in
      let cur = Hashtbl.find_opt tbl key in
      Hashtbl.replace tbl key
        (match cur with None -> mode | Some m -> stronger m mode))
    ops;
  Hashtbl.fold (fun k m acc -> (k, m) :: acc) tbl []
  |> List.sort compare

(* Mirror one applied commuting write to every peer replica of this node's
   group. Counters use the raw R/C pair — not [bump_r]/[bump_c] — so the
   live-subtransaction oracle keeps counting genuine subtransactions only:
   quiescence (R = C) is what makes the coordinator wait for mirrors, and a
   quorum poll may excuse mirrors still owed to a crashed replica. Down
   peers are mirrored anyway: the reliable channel retransmits until the
   peer restarts, which {e is} the recovery catch-up path. *)
let mirror_write t node p op =
  if repl_on t && p.p_kind = Spec.Commuting then
    List.iter
      (fun peer ->
        Counters.incr_r node.cnt ~version:p.p_version
          ~dst:(cnt_ix t node peer);
        cstat t "repl.mirrors";
        if tracing t then begin
          let rv =
            Counters.r node.cnt ~version:p.p_version ~dst:(cnt_ix t node peer)
          in
          trl t node.name (fun () ->
              Printf.sprintf "mirrors %s of tx %s to %s; R%d[%s->%s]=%d"
                (Op.key op) p.p_label (node_name t peer) p.p_version node.name
                (node_name t peer) rv)
        end;
        send t ~src:node.id ~dst:peer
          (Mirror
             { txn_id = p.p_txn; version = p.p_version; source = node.id; op }))
      (Repl.Placement.peers t.repl node.id)

(* Execute the local operations of a commuting / read-only subtransaction
   against the versioned store, collecting reads. *)
let run_ops_commuting t node p ops =
  List.iter
    (fun op ->
      match op with
      | Op.Read key ->
          let found = Mvstore.read_visible node.store ~key ~version:p.p_version in
          let version_seen, value =
            match found with
            | Some (v, value) -> (v, value)
            | None -> (-1, Value.empty)
          in
          if tracing t then
            trl t node.name (fun () ->
                Printf.sprintf "tx %s reads %s version %d" p.p_label key
                  version_seen);
          p.p_reads <- p.p_reads @ [ (key, value) ]
      | Op.Incr _ | Op.Append _ | Op.Overwrite _ ->
          let info =
            if t.cfg.dual_writes then
              Mvstore.write_upward node.store ~key:(Op.key op)
                ~version:p.p_version ~init:Value.empty
                ~f:(Op.apply op ~txn:p.p_txn)
            else
              Mvstore.write_exact node.store ~key:(Op.key op)
                ~version:p.p_version ~init:Value.empty
                ~f:(Op.apply op ~txn:p.p_txn)
          in
          if info.Mvstore.versions_updated >= 2 then cstat t "store.dual_write";
          note_divergence t node op;
          mirror_write t node p op;
          if tracing t then begin
            let versions =
              List.filter
                (fun v -> v >= p.p_version)
                (Mvstore.versions_of node.store ~key:(Op.key op))
            in
            trl t node.name (fun () ->
                Printf.sprintf "tx %s updates %s version%s %s" p.p_label
                  (Op.key op)
                  (if List.length versions > 1 then "s" else "")
                  (pp_int_list (List.sort compare versions)))
          end)
    ops

(* NC3V local operations: reads go through; writes check the overtake rule
   and are buffered until the 2PC decision. Returns [false] on abort. *)
let run_ops_nc t node p ops =
  let ok = ref true in
  List.iter
    (fun op ->
      if !ok then
        match op with
        | Op.Read key ->
            let value =
              match Mvstore.read_visible node.store ~key ~version:p.p_version with
              | Some (_, value) -> value
              | None -> Value.empty
            in
            p.p_reads <- p.p_reads @ [ (key, value) ]
        | Op.Incr _ | Op.Append _ | Op.Overwrite _ ->
            let key = Op.key op in
            if Mvstore.exists_above node.store ~key ~version:p.p_version then begin
              (* §5 step 4: a higher version exists — K must abort. *)
              p.p_vote <- Vote_abort "version-overtaken";
              if tracing t then
                tr t node.name "nc tx %s overtaken on %s; votes abort"
                  p.p_label key;
              ok := false
            end
            else p.p_buffered <- (key, op) :: p.p_buffered)
    ops;
  !ok

(* Spawn all child subtransactions of [p], bumping request counters before
   each send (§4.1 step 5). A vectored read child entering a {e different}
   shard gets that shard's vector component as its version and no R bump
   here: its parent's counter timeline is a different shard's, so the
   entry opens a self pair on arrival instead ({!handle_subtxn}) — R = C
   then balances entirely within the target shard's block. *)
let spawn_children t node p (children : Spec.subtxn list) ~compensating =
  List.iter
    (fun (child : Spec.subtxn) ->
      let child_shard = child.Spec.node / t.per_shard in
      let cross = child_shard <> node.shard in
      let child_version =
        match p.p_vector with
        | Some vec when cross -> vec.(child_shard)
        | _ -> p.p_version
      in
      if not cross then begin
        bump_r t node ~version:p.p_version ~dst:child.Spec.node;
        if tracing t then begin
          let rv =
            Counters.r node.cnt ~version:p.p_version
              ~dst:(cnt_ix t node child.Spec.node)
          in
          trl t node.name (fun () ->
              Printf.sprintf "subtx of %s issued to %s; R%d[%s->%s]=%d"
                p.p_label
                (node_name t child.Spec.node)
                p.p_version node.name
                (node_name t child.Spec.node)
                rv)
        end
      end
      else if tracing t then
        trl t node.name (fun () ->
            Printf.sprintf
              "subtx of %s crosses to shard %d at %s (vector version %d)"
              p.p_label child_shard
              (node_name t child.Spec.node)
              child_version);
      p.p_outstanding <- p.p_outstanding + 1;
      send t ~src:node.id ~dst:child.Spec.node
        (Subtxn
           {
             txn_id = p.p_txn;
             label = p.p_label;
             kind = p.p_kind;
             version = child_version;
             source = node.id;
             parent = Some (node.id, p.p_id);
             tree = child;
             root = None;
             compensating;
             vector = p.p_vector;
           }))
    children

(* Full execution of one subtransaction at [node], as a simulated process. *)
(* --------------------------------------------------------- completion *)

(* A subtransaction "terminates" (paper §4.1 step 6 / Table 1 semantics)
   once its local work is done and all its children have terminated. *)
let rec maybe_finish t node p =
  if p.p_local_done && p.p_outstanding = 0 then begin
    match (p.p_kind, p.p_root) with
    | Spec.Non_commuting, None ->
        (* Participant: send the vote up; await the root's decision. *)
        let ids =
          match Hashtbl.find_opt node.nc_awaiting p.p_txn with
          | Some ids -> ids
          | None ->
              let ids = ref [] in
              Hashtbl.replace node.nc_awaiting p.p_txn ids;
              ids
        in
        ids := p.p_id :: !ids;
        let parent_node, parent_pid =
          match p.p_parent with
          | Some pp -> pp
          | None -> assert false
        in
        send t ~src:node.id ~dst:parent_node
          (Completion
             {
               pending_id = parent_pid;
               child_label = p.p_label;
               reads = p.p_reads;
               vote = p.p_vote;
               nodes = p.p_nodes;
             })
    | Spec.Non_commuting, Some rs ->
        (* Root: decide, apply locally, broadcast the decision. *)
        Hashtbl.remove node.pendings p.p_id;
        let commit = p.p_vote = Vote_commit in
        let ids =
          match Hashtbl.find_opt node.nc_awaiting p.p_txn with
          | Some ids -> ids
          | None ->
              let ids = ref [] in
              Hashtbl.replace node.nc_awaiting p.p_txn ids;
              ids
        in
        ids := p.p_id :: !ids;
        (* Re-register the root itself so apply_decision handles it too. *)
        Hashtbl.replace node.pendings p.p_id p;
        apply_decision t node ~txn_id:p.p_txn ~commit;
        List.iter
          (fun n ->
            if n <> node.id then
              send t ~src:node.id ~dst:n (Decision { txn_id = p.p_txn; commit }))
          p.p_nodes;
        if tracing t then
          trl t node.name (fun () ->
              Printf.sprintf "nc tx %s decision: %s" p.p_label
                (if commit then "commit" else "abort"));
        cstat t (if commit then "txn.committed" else "txn.aborted");
        let outcome =
          if commit then Result.Committed
          else
            Result.Aborted
              (match p.p_vote with
              | Vote_abort reason -> reason
              | Vote_commit -> "unknown")
        in
        Ivar.fill rs.rs_result
          {
            Result.txn_id = p.p_txn;
            outcome;
            version = p.p_version;
            served_by = node.id;
            reads = p.p_reads;
            submit_time = rs.rs_submit_time;
            root_commit_time = rs.rs_root_commit;
            complete_time = Sim.now t.sim;
          }
    | Spec.Commuting, Some rs
      when p.p_vote <> Vote_commit && not rs.rs_compensated ->
        (* §3.2: some subtransaction of this commuting tree aborted. The
           whole tree's effects are undone by one compensation wave of
           ordinary subtransactions: the root applies its own inverse and
           sends the inverse of each child subtree. Guarded by
           [rs_compensated] so the wave runs at most once (the paper's
           footnote: never more than one compensating subtransaction per
           node). Counters account the wave like any other subtransactions,
           so termination detection keeps working. *)
        rs.rs_compensated <- true;
        p.p_outstanding <- p.p_outstanding + 1 (* hold the root open *);
        let tree = rs.rs_spec.Spec.root in
        Sim.spawn t.sim ~daemon:false
          ~namef:(fun () -> Printf.sprintf "%s/%s-compensation" node.name p.p_label)
          (fun () ->
            let inverse = invert_tree tree in
            Semaphore.with_permit t.sim node.local_cc (fun () ->
                if t.cfg.think_time > 0. then Sim.sleep t.sim t.cfg.think_time;
                run_ops_commuting t node p inverse.Spec.ops);
            if tracing t then
              tr t node.name "tx %s compensates (wave starts)" p.p_label;
            spawn_children t node p inverse.Spec.children ~compensating:true;
            p.p_outstanding <- p.p_outstanding - 1;
            maybe_finish t node p)
    | (Spec.Read_only | Spec.Commuting), _ ->
        Hashtbl.remove node.pendings p.p_id;
        bump_c t node ~version:p.p_version ~src:p.p_source;
        (match p.p_parent with
        | Some (parent_node, parent_pid) ->
            if tracing t then begin
              let cv =
                Counters.c node.cnt ~version:p.p_version
                  ~src:(cnt_ix t node p.p_source)
              in
              trl t node.name (fun () ->
                  Printf.sprintf "subtx %s terminates; C%d[%s->%s]=%d"
                    p.p_label p.p_version (node_name t p.p_source) node.name
                    cv)
            end;
            send t ~src:node.id ~dst:parent_node
              (Completion
                 {
                   pending_id = parent_pid;
                   child_label = p.p_label;
                   reads = p.p_reads;
                   vote = p.p_vote;
                   nodes = p.p_nodes;
                 })
        | None ->
            let rs = match p.p_root with Some rs -> rs | None -> assert false in
            if tracing t then begin
              let cv =
                Counters.c node.cnt ~version:p.p_version
                  ~src:(cnt_ix t node p.p_source)
              in
              trl t node.name (fun () ->
                  Printf.sprintf "tx %s is complete; C%d[%s->%s]=%d" p.p_label
                    p.p_version node.name node.name cv)
            end;
            (* Asynchronous clean-up of commute locks (§5). *)
            if t.cfg.nc_mode && p.p_kind = Spec.Commuting then
              List.iter
                (fun n ->
                  send t ~src:node.id ~dst:n (Cleanup { txn_id = p.p_txn }))
                p.p_nodes;
            let outcome =
              if rs.rs_compensated then Result.Aborted "compensated"
              else Result.Committed
            in
            cstat t
              (if rs.rs_compensated then "txn.compensated" else "txn.committed");
            Ivar.fill rs.rs_result
              {
                Result.txn_id = p.p_txn;
                outcome;
                version = p.p_version;
                served_by = node.id;
                reads = p.p_reads;
                submit_time = rs.rs_submit_time;
                root_commit_time = rs.rs_root_commit;
                complete_time = Sim.now t.sim;
              })
  end

and handle_completion t node ~pending_id ~child_label ~reads ~vote ~nodes =
  match Hashtbl.find_opt node.pendings pending_id with
  | None ->
      invalid_arg
        (Printf.sprintf "Engine: completion for unknown pending %d at node %d"
           pending_id node.id)
  | Some p ->
      if tracing t then
        trl t node.name (fun () ->
            Printf.sprintf "completion notice for subtx %s arrives" child_label);
      p.p_reads <- p.p_reads @ reads;
      p.p_vote <- combine_vote p.p_vote vote;
      p.p_nodes <- merge_nodes p.p_nodes nodes;
      p.p_outstanding <- p.p_outstanding - 1;
      maybe_finish t node p

let exec_subtxn t node p (tree : Spec.subtxn) ~compensating =
  (* Application-level lateness (e.g. a charge being finalized) happens
     before any locks or local serialization. *)
  if tree.Spec.think > 0. then Sim.sleep t.sim tree.Spec.think;
  (* NC3V admission wait applies to non-commuting roots only. *)
  (if p.p_kind = Spec.Non_commuting && p.p_parent = None then begin
     if p.p_version <> node.vr + 1 && tracing t then
       tr t node.name "nc tx %s waits for vu = vr + 1" p.p_label;
     wait_nc_admission t node p.p_version
   end);
  (* Lock acquisition happens outside the local critical section so a
     blocked transaction never stalls the whole node. *)
  let lock_failure = ref None in
  if t.cfg.nc_mode && p.p_kind <> Spec.Read_only then begin
    let timeout =
      if p.p_kind = Spec.Non_commuting then t.cfg.deadlock_timeout else infinity
    in
    List.iter
      (fun (key, mode) ->
        if !lock_failure = None then
          match
            Lockmgr.acquire node.locks ~timeout ~owner:p.p_txn ~key ~mode ()
          with
          | Lockmgr.Granted -> ()
          | Lockmgr.Deadlock -> lock_failure := Some "deadlock"
          | Lockmgr.Timeout -> lock_failure := Some "lock-timeout"
          | Lockmgr.Cancelled -> lock_failure := Some "cancelled")
      (lock_plan ~kind:p.p_kind tree.Spec.ops)
  end;
  (match !lock_failure with
  | Some reason ->
      (* Only NC transactions can fail here (commuting waits are unbounded);
         vote abort without executing or spawning children. *)
      p.p_vote <- Vote_abort reason;
      cstat t "txn.lock_failure";
      if tracing t then
        tr t node.name "nc tx %s lock failure (%s); votes abort" p.p_label
          reason
  | None ->
      (* Local critical section: the node's local concurrency control
         serializes subtransaction bodies (paper §3.1 assumption). *)
      Semaphore.with_permit t.sim node.local_cc (fun () ->
          if t.cfg.think_time > 0. then Sim.sleep t.sim t.cfg.think_time;
          match p.p_kind with
          | Spec.Read_only | Spec.Commuting -> run_ops_commuting t node p tree.Spec.ops
          | Spec.Non_commuting -> ignore (run_ops_nc t node p tree.Spec.ops));
      cstat t "subtxn.executed";
      (* Fault injection for §3.2: any commuting subtransaction may abort at
         its commit point (its local effects already applied). The abort
         vote propagates to the root, which runs the single compensation
         wave. Compensating subtransactions themselves never re-abort. *)
      if
        p.p_kind = Spec.Commuting
        && (not compensating)
        && t.cfg.abort_probability > 0.
        && Random.State.float (Sim.rng t.sim) 1. < t.cfg.abort_probability
      then begin
        p.p_vote <- Vote_abort "application-abort";
        if tracing t then
          tr t node.name "subtx of %s aborts; compensation required" p.p_label
      end;
      if p.p_vote = Vote_commit || p.p_kind = Spec.Commuting then
        spawn_children t node p tree.Spec.children ~compensating);
  (match p.p_root with
  | Some rs -> rs.rs_root_commit <- Sim.now t.sim
  | None -> ());
  p.p_local_done <- true;
  maybe_finish t node p

(* ------------------------------------------------- message handling *)

let alloc_pending node =
  node.next_pending <- node.next_pending + 1;
  node.next_pending

(* A vectored read entry lands in this shard: its assigned version must
   still be materialized here. The read-vector service's pending tallies
   defer retiring that version until this arrival, so a floor violation is
   an accounting bug — fatal under debug checks. *)
let check_entry_floor t node ~version ~label =
  if t.cfg.debug_checks && version < Mvstore.gc_floor node.store then
    failwith
      (Printf.sprintf
         "torn read vector: tx %s entry arrived at %s with version %d below \
          the GC floor %d"
         label node.name version
         (Mvstore.gc_floor node.store))

(* Retire the entry's pending tally at the read-vector service. *)
let rvec_arrived t node ~version =
  match t.rvec with
  | Some rv -> Shard.Rvector.arrived rv ~shard:node.shard ~version
  | None -> ()

let handle_subtxn t node ~txn_id ~label ~kind ~version ~source ~parent ~tree
    ~root ~compensating ~vector =
  (* Steps 1-2 of §4.1: version assignment for roots; implicit advancement
     notification for higher-versioned arrivals. These counter/version
     accesses are atomic and outside local concurrency control. *)
  let entry_source = ref source in
  let version =
    match (parent, kind) with
    | None, Spec.Read_only when vector <> None ->
        (* Cross-shard read root: the submission-time vector fixes this
           shard's read version; the root is the vector's entry into its
           own shard. *)
        let v = match vector with Some vec -> vec.(node.shard) | None -> -1 in
        check_entry_floor t node ~version:v ~label;
        bump_r t node ~version:v ~dst:node.id;
        rvec_arrived t node ~version:v;
        if tracing t then begin
          let rv = Counters.r node.cnt ~version:v ~dst:(cnt_ix t node node.id) in
          trl t node.name (fun () ->
              Printf.sprintf
                "vectored read tx %s arrives; version %d; R%d[%s->%s]=%d"
                label v v node.name node.name rv)
        end;
        v
    | None, Spec.Read_only ->
        let v = node.vr in
        bump_r t node ~version:v ~dst:node.id;
        if tracing t then begin
          let rv = Counters.r node.cnt ~version:v ~dst:(cnt_ix t node node.id) in
          trl t node.name (fun () ->
              Printf.sprintf "read tx %s arrives; version %d; R%d[%s->%s]=%d"
                label v v node.name node.name rv)
        end;
        v
    | None, (Spec.Commuting | Spec.Non_commuting) ->
        let v = node.vu in
        bump_r t node ~version:v ~dst:node.id;
        if tracing t then begin
          let rv = Counters.r node.cnt ~version:v ~dst:(cnt_ix t node node.id) in
          trl t node.name (fun () ->
              Printf.sprintf "update tx %s arrives; version %d; R%d[%s->%s]=%d"
                label v v node.name node.name rv)
        end;
        v
    | Some _, _ when vector <> None && source / t.per_shard <> node.shard ->
        (* Cross-shard read entry: the parent bumped no R pair (its counter
           timeline is another shard's); open a self pair here instead so
           R = C balances within this shard's block, and retire the
           service's pending tally now that the entry is visible to
           quiescence polls. *)
        check_entry_floor t node ~version ~label;
        entry_source := node.id;
        bump_r t node ~version ~dst:node.id;
        rvec_arrived t node ~version;
        if tracing t then begin
          let rv = Counters.r node.cnt ~version ~dst:(cnt_ix t node node.id) in
          trl t node.name (fun () ->
              Printf.sprintf
                "entry subtx of %s arrives from %s; version %d; \
                 R%d[%s->%s]=%d"
                label (node_name t source) version version node.name node.name
                rv)
        end;
        version
    | Some _, _ ->
        if tracing t then
          trl t node.name (fun () ->
              Printf.sprintf "subtx of %s arrives from %s (version %d)" label
                (node_name t source) version);
        (* Version-codec precondition (paper §4's mod-3 reuse remark): every
           arriving version is within distance 1 of the receiver's anchor —
           [vr] on the read path, [vu] on the update path. *)
        if t.cfg.debug_checks then begin
          let anchor =
            match kind with Spec.Read_only -> node.vr | _ -> node.vu
          in
          if abs (version - anchor) > 1 then
            failwith
              (Printf.sprintf
                 "3V invariant violation: version %d arrived at %s with \
                  anchor %d — mod-3 version reuse would misdecode"
                 version node.name anchor)
        end;
        if version > node.vu then begin
          if tracing t then
            tr t node.name
              "implicit notification: advancing update version to %d" version;
          node.vu <- version;
          Counters.ensure_version node.cnt version
        end;
        (* Read-side late-node rule: a version-v read child was admitted at
           its root only after the coordinator made v consistent and
           readable (phase 3), so adopting v forward is safe. This is how a
           crash-restarted node catches its read version up from the first
           higher-versioned message it sees, without waiting for the
           coordinator's retransmitted Advance_read. Only active in the
           hardened (reliable-channel) configuration, so historical
           fault-free schedules stay byte-identical. *)
        if t.cfg.reliable_channel && kind = Spec.Read_only && version > node.vr
        then begin
          if tracing t then
            tr t node.name
              "implicit notification: advancing read version to %d" version;
          node.vr <- version;
          wake_vr_waiters node
        end;
        version
  in
  let p =
    {
      p_id = alloc_pending node;
      p_txn = txn_id;
      p_label = label;
      p_kind = kind;
      p_version = version;
      p_source = !entry_source;
      p_parent = parent;
      p_compensating = compensating;
      p_outstanding = 0;
      p_local_done = false;
      p_reads = [];
      p_vote = Vote_commit;
      p_nodes = [ node.id ];
      p_buffered = [];
      p_root = root;
      p_vector = vector;
    }
  in
  Hashtbl.replace node.pendings p.p_id p;
  (* [namef]: one subtransaction fiber per subtxn makes this the hottest
     spawn in the system — the name is only rendered on stall/failure. *)
  Sim.spawn t.sim ~daemon:false
    ~namef:(fun () -> Printf.sprintf "%s/%s#%d" node.name label p.p_id)
    (fun () -> exec_subtxn t node p tree ~compensating)

let handle_node_msg t node = function
  | Subtxn { txn_id; label; kind; version; source; parent; tree; root;
             compensating; vector } ->
      handle_subtxn t node ~txn_id ~label ~kind ~version ~source ~parent ~tree
        ~root ~compensating ~vector
  | Completion { pending_id; child_label; reads; vote; nodes } ->
      handle_completion t node ~pending_id ~child_label ~reads ~vote ~nodes
  | Cleanup { txn_id } -> Lockmgr.release_all node.locks ~owner:txn_id
  | Decision { txn_id; commit } -> apply_decision t node ~txn_id ~commit
  | Start_advancement { vu_new } ->
      if node.vu < vu_new then begin
        node.vu <- vu_new;
        Counters.ensure_version node.cnt vu_new;
        check_version_window_shard t ~shard:node.shard;
        if tracing t then
          tr t node.name "start-advancement arrives; update version now %d"
            vu_new
      end
      else if tracing t then
        tr t node.name
          "start-advancement arrives; update version already %d" node.vu;
      send t ~src:node.id ~dst:(coord_ep t node)
        (Adv_ack { from_node = node.id; vu = vu_new })
  | Advance_read { vr_new } ->
      if node.vr < vr_new then begin
        node.vr <- vr_new;
        if tracing t then tr t node.name "read version advanced to %d" vr_new;
        wake_vr_waiters node
      end;
      send t ~src:node.id ~dst:(coord_ep t node)
        (Read_ack { from_node = node.id; vr = vr_new })
  | Counter_query { version; round; epoch } ->
      send t ~src:node.id ~dst:(coord_ep t node)
        (Counter_reply
           {
             from_node = node.id;
             version;
             round;
             epoch;
             r_row = Counters.snapshot_r node.cnt ~version;
             c_col = Counters.snapshot_c node.cnt ~version;
           })
  | Mirror { txn_id; version; source; op } ->
      (* Replica mirror of a committed commuting write: apply it to the
         local store with the dual-write rule so a mirror landing after a
         version switch still repairs every later version. A mirror whose
         version has already been garbage-collected here (it retransmitted
         across ≥ 2 advancements while this replica was down) is applied
         from the GC floor upward — the surviving versions are exactly the
         ones that must absorb the delta — and its counter pair is dropped,
         matching the sender whose R row for that version is gone too. *)
      let floor = Mvstore.gc_floor node.store in
      ignore
        (Mvstore.write_upward node.store ~key:(Op.key op)
           ~version:(max version floor) ~init:Value.empty
           ~f:(Op.apply op ~txn:txn_id));
      if version >= floor then
        Counters.incr_c node.cnt ~version ~src:(cnt_ix t node source);
      cstat t "repl.mirror_applies";
      if tracing t then
        trl t node.name (fun () ->
            Printf.sprintf "mirror from %s applies %s at version %d (floor %d)"
              (node_name t source) (Op.key op) version floor)
  | Do_gc { keep } ->
      (* A GC notice implies every node acknowledged read version [keep] in
         phase 3, so adopting it is always safe. Normally a no-op (phase 3
         already set it); it repairs a crash-restarted node whose recovered
         read version lagged the phase-3 broadcast it slept through. *)
      if node.vr < keep then begin
        node.vr <- keep;
        if tracing t then
          tr t node.name "read version adopted from GC notice: %d" keep;
        wake_vr_waiters node
      end;
      (* Idempotent under re-delivery (a recovered coordinator re-drives
         phase 4): collect only if this notice actually raises the GC
         floor; always re-ack. *)
      if Mvstore.gc_floor node.store < keep then begin
        Mvstore.gc node.store ~new_read_version:keep;
        Counters.gc_below node.cnt keep;
        check_version_window_shard t ~shard:node.shard;
        if tracing t then
          tr t node.name "garbage-collects below version %d" keep
      end
      else if tracing t then
        tr t node.name
          "gc notice for version %d re-delivered; already collected" keep;
      send t ~src:node.id ~dst:(coord_ep t node) (Gc_ack { from_node = node.id; keep })
  | Adv_ack _ | Read_ack _ | Counter_reply _ | Gc_ack _ | Coord_wake ->
      invalid_arg "Engine: coordinator message delivered to a node"

(* ------------------------------------------------------- coordinator *)

(* The system's boot-time version pair: every node starts with update
   version [initial_vu] and read version [initial_vr], and recovery logic
   (node restart, coordinator WAL replay) seeds from these — never from
   magic literals that would silently diverge from [create]. *)
let initial_vu = 1
let initial_vr = 0

(* Broadcast to one shard's members — all nodes at [shards = 1]. *)
let broadcast t cs msg =
  for i = cs.cs_lo to cs.cs_lo + cs.cs_n - 1 do
    send t ~src:cs.cs_id ~dst:i msg
  done

(* Raised inside a coordinator fiber when it observes that a crash window
   hit it; [coordinator_loop] catches it, replays the WAL, and re-drives
   the in-flight advancement. *)
exception Coord_crashed

(* Notice a pending crash: if the crash hook fired since we last looked,
   sleep out the remainder of the down window (volatile state is already
   gone; the fiber must not act while "down") and raise. *)
let coord_check t cs =
  if cs.cs_crash_gen <> cs.cs_seen_gen then begin
    cs.cs_seen_gen <- cs.cs_crash_gen;
    let now = Sim.now t.sim in
    if now < cs.cs_down_until then Sim.sleep t.sim (cs.cs_down_until -. now);
    raise Coord_crashed
  end

(* Receive as a shard's coordinator, crash-aware. A message consumed by the
   very receive that notices the crash is discarded with it — safe, because
   the re-driven phase re-collects every reply it needs. *)
let coord_recv t cs =
  let msg = Reliable.recv t.ch ~node:cs.cs_id in
  coord_check t cs;
  msg

(* ---- stall watchdog ---- *)

let watch_begin t cs ~what ~resend =
  if t.cfg.phase_deadline < infinity then
    cs.cs_watch <-
      Some
        {
          w_what = what;
          w_deadline = Sim.now t.sim +. t.cfg.phase_deadline;
          w_interval = t.cfg.phase_deadline;
          w_resend = resend;
        }

let watch_end cs = cs.cs_watch <- None

(* Daemon (spawned only when [phase_deadline] is finite, one per shard):
   whenever an armed watch sits past its deadline, record the stall,
   re-broadcast the phase message to the nodes still owing a reply, and
   double the interval with a bound — self-healing for silent wedges such
   as a node crashed past the channel's retransmission window. *)
let watchdog_loop t cs () =
  let rec loop () =
    Sim.sleep t.sim (t.cfg.phase_deadline /. 4.);
    (match cs.cs_watch with
    | Some w when Sim.now t.sim >= w.w_deadline ->
        cstat t "proto.phase_stalled";
        if tracing t then
          tr t cs.cs_name "watchdog: %s stalled for %gs; re-broadcasting"
            w.w_what w.w_interval;
        w.w_resend ();
        w.w_interval <- Float.min (w.w_interval *. 2.) (8. *. t.cfg.phase_deadline);
        w.w_deadline <- Sim.now t.sim +. w.w_interval
    | _ -> ());
    loop ()
  in
  loop ()

(* Poll participation under replication: every live shard member is
   required, plus every member of a fully-dead group — quorum is lost
   there, and the coordinator must wait for one of those replicas to
   restart rather than excuse versions no surviving replica can vouch for.
   Indexed by shard-relative member position ([0 .. cs_n)); groups never
   straddle shards, so slicing the global requirement is exact. With
   [replicas = 1] every member is required, which is exactly the
   historical behavior (a crashed node blocks the wait until the channel's
   retransmissions reach its restart). *)
let poll_required t cs =
  if not (repl_on t) then Array.make cs.cs_n true
  else if t.cfg.shards = 1 then begin
    (* Single-shard: the historical global computation, preserved verbatim
       because {!node_live} reads through the failure detector, whose
       deadline refresh is stateful — the exact probe sequence is part of
       the replay-stable schedule. *)
    let live i = node_live t i in
    if not (Repl.Quorum.met t.repl ~live) then cstat t "repl.quorum_lost";
    Repl.Quorum.required t.repl ~live
  end
  else begin
    (* Sharded: probe each member once, then derive per-group death from
       the memo — groups are [replicas]-sized blocks fully inside the
       shard ([create] validates divisibility). *)
    let lv = Array.init cs.cs_n (fun i -> node_live t (cs.cs_lo + i)) in
    let req = Array.copy lv in
    let gsize = t.cfg.replicas in
    let lost = ref false in
    let g = ref 0 in
    while !g < cs.cs_n do
      let any = ref false in
      for m = !g to !g + gsize - 1 do
        if lv.(m) then any := true
      done;
      if not !any then begin
        lost := true;
        (* A fully-dead group has no live representative; the poll must
           wait for a restart rather than excuse versions no surviving
           replica can vouch for: every member stays required. *)
        for m = !g to !g + gsize - 1 do
          req.(m) <- true
        done
      end;
      g := !g + gsize
    done;
    if !lost then cstat t "repl.quorum_lost";
    req
  end

(* Watchdog-time suspicion excusal: under replication with the failure
   detector on, a node that fell under suspicion {e after} a coordinator
   wait began is excused at the next watchdog firing — provided its group
   still has an unsuspected member ({!poll_required} keeps every member of
   a fully-suspect group required, so quorum is never excused away).
   Excusing a false suspicion is safe: the node is alive, its late ack or
   counter reply arrives anyway and folds in idempotently, and any counter
   pairs it owes are quorum-scoped out of the comparison exactly as for a
   genuinely crashed replica. Excusal is monotone within one wait. If the
   requirement drops to zero the parked wait fiber is woken with the same
   zero-payload self-send a restarting coordinator uses. *)
let excuse_suspected t cs ~required ~answered ~needed =
  if repl_on t && t.fd <> None then begin
    let req_now = poll_required t cs in
    Array.iteri
      (fun i was ->
        if was && (not req_now.(i)) && not answered.(i) then begin
          required.(i) <- false;
          decr needed;
          cstat t "proto.suspicion_excused"
        end)
      required;
    if !needed <= 0 then send t ~src:cs.cs_id ~dst:cs.cs_id Coord_wake
  end

(* Await one acknowledgement from every required node. [matches] returns
   the sender for a matching ack; acks are counted per distinct node, so a
   duplicate (watchdog re-broadcast, raw-mode duplicate) can never complete
   a phase early — it is recorded under [proto.dup_acks]. Non-matching
   coordinator inbox traffic (stale counter replies, acks of a superseded
   phase) is counted under [proto.stale_msgs] instead of vanishing
   silently. [resend i] re-sends the phase message to node [i] (watchdog
   path). Acks from excused (crashed) replicas are still recorded if their
   retransmitted phase message lands mid-wait. [acked]/[required] are
   indexed by shard-relative member position; [matches] still returns
   absolute node ids off the wire. *)
let await_acks t cs ~what ~resend ~matches =
  let n = cs.cs_n in
  let required = poll_required t cs in
  let acked = Array.make n false in
  let needed = ref 0 in
  Array.iter (fun r -> if r then incr needed) required;
  watch_begin t cs ~what ~resend:(fun () ->
      excuse_suspected t cs ~required ~answered:acked ~needed;
      Array.iteri (fun i done_ -> if not done_ then resend (cs.cs_lo + i)) acked);
  while !needed > 0 do
    match coord_recv t cs with
    | Coord_wake -> ()
    | msg -> (
        match matches msg with
        | Some from
          when from >= cs.cs_lo
               && from < cs.cs_lo + n
               && not acked.(from - cs.cs_lo) ->
            acked.(from - cs.cs_lo) <- true;
            if required.(from - cs.cs_lo) then decr needed
        | Some _ -> cstat t "proto.dup_acks"
        | None -> cstat t "proto.stale_msgs")
  done;
  watch_end cs

(* One asynchronous poll of all R rows / C columns for [version]. Returns
   (r, c, got) with r.(p).(q) = R(version)pq, c.(p).(q) = C(version)pq and
   got.(i) marking the nodes whose reply was folded in. Replies are matched
   on (epoch, round, version) — the epoch namespaces rounds across
   coordinator restarts — and counted per distinct node. The wait completes
   once every {e required} node (see {!poll_required}) replied; a reply
   from an excused crashed replica that restarts mid-round is folded in
   anyway. *)
let poll_counters t cs ~version =
  cs.cs_poll_round <- cs.cs_poll_round + 1;
  cstat t "proto.polls";
  let round = cs.cs_poll_round and epoch = cs.cs_epoch in
  let query = Counter_query { version; round; epoch } in
  broadcast t cs query;
  let n = cs.cs_n and lo = cs.cs_lo in
  let required = poll_required t cs in
  let r, c = cs.cs_poll_bufs.(cs.cs_poll_round land 1) in
  let got = Array.make n false in
  let needed = ref 0 in
  Array.iter (fun req -> if req then incr needed) required;
  watch_begin t cs
    ~what:(Printf.sprintf "counter poll round %d (version %d)" round version)
    ~resend:(fun () ->
      excuse_suspected t cs ~required ~answered:got ~needed;
      Array.iteri
        (fun i done_ ->
          if not done_ then send t ~src:cs.cs_id ~dst:(lo + i) query)
        got);
  while !needed > 0 do
    match coord_recv t cs with
    | Counter_reply { from_node; version = v; round = rd; epoch = ep; r_row; c_col }
      when v = version && rd = round && ep = epoch && from_node >= lo
           && from_node < lo + n ->
        let fi = from_node - lo in
        if got.(fi) then cstat t "proto.dup_acks"
        else begin
          got.(fi) <- true;
          (* R(v)pq is stored at sender p; C(v)pq at executor q. Rows and
             columns are shard-local (see {!cnt_ix}): index [q] is the
             shard member at [lo + q], and cross-shard pairs do not exist
             (update trees never leave their shard; read entries open self
             pairs on arrival). *)
          for q = 0 to n - 1 do
            r.(fi).(q) <- r_row.(q)
          done;
          for p = 0 to n - 1 do
            c.(p).(fi) <- c_col.(p)
          done;
          if required.(fi) then decr needed
        end
    | Coord_wake -> ()
    (* lint: flow-ok — deliberately non-total: the coordinator inbox also
       carries acks of superseded phases and replies to stale poll rounds,
       and this arm is the designed sink that counts them under
       [proto.stale_msgs] instead of dropping them silently. Node-bound
       messages can never arrive here (the mailbox is the coordinator's
       own endpoint). *)
    | _ -> cstat t "proto.stale_msgs"
  done;
  watch_end cs;
  (r, c, got)

(* Phase 2 / phase 4 core: poll until two consecutive polls are identical
   and show R = C pairwise — the repeated-snapshot stable-property
   detection the paper cites [8, 12, 9]. Under replication the comparison
   is quorum-scoped: counter pairs involving an excused crashed replica are
   skipped, because the only traffic they can still owe is mirrors (which
   retransmit until the replica restarts, and the readable-after-recovery
   gate keeps it from serving reads before they land). Pairs of {e genuine}
   subtransactions stranded at a crashed replica are a different story —
   their roots have not committed, so retiring their version would let a
   read miss a writer that later completes. The live-subtransaction oracle
   detects exactly that case and defers the advancement until the replica
   restarts and drains them. *)
let await_quiescence t cs ?(vr_pending = false) ~version () =
  (* Cross-shard read entries assigned [version] by the read-vector
     service but not yet arrived here have opened no counter pair, so
     R = C cannot see them; consult the service and defer retirement
     while any are in flight (phase-3 waits only — update versions are
     never vector components). *)
  let service_pending () =
    match t.rvec with
    | Some rv when vr_pending ->
        Shard.Rvector.pending rv ~shard:cs.cs_shard ~version
    | _ -> 0
  in
  let rec go prev =
    let r, c, got = poll_counters t cs ~version in
    let settled = Repl.Quorum.matrices_agree ~considered:got r c in
    let stable =
      match prev with
      | Some (pr, pc, pg) ->
          let both = Array.mapi (fun i g -> g && got.(i)) pg in
          Repl.Quorum.matrices_agree ~considered:both pr r
          && Repl.Quorum.matrices_agree ~considered:both pc c
      | None -> false
    in
    let full = Array.for_all (fun g -> g) got in
    let quiet = settled && (stable || not t.cfg.two_wave_quiescence) in
    let defer_stranded =
      quiet && (not full) && Vwindow.get cs.cs_live version <> 0
    in
    let defer_service = quiet && service_pending () <> 0 in
    if defer_stranded then cstat t "repl.quorum_deferred";
    if defer_service then cstat t "shard.rvector_deferred";
    if quiet && (not defer_stranded) && not defer_service then begin
      let active = Vwindow.get cs.cs_live version in
      if active <> 0 then begin
        (* Full participation and still active work: the protocol is about
           to act on a false quiescence claim. With checks on this is
           fatal; the A1 ablation instead records it and lets the
           resulting corruption surface downstream. *)
        if t.cfg.debug_checks then
          failwith
            (Printf.sprintf
               "3V unsoundness: coordinator declared version %d quiescent \
                with %d live subtransactions"
               version active)
        else cstat t "proto.unsound_quiescence"
      end
    end
    else begin
      Sim.sleep t.sim t.cfg.poll_interval;
      coord_check t cs;
      go (Some (r, c, got))
    end
  in
  go None

(* The four-phase version advancement of §4.3, write-ahead logged: every
   phase entry is recorded in [t.clog] before its first message goes out,
   so a crash-restarted coordinator resumes the in-flight advancement at
   its last logged phase (node-side idempotence makes re-driving a
   partially — or fully — completed phase harmless).

   Phase 4 is the one asymmetry: its [Retire_read] record is logged only
   {e after} [vr_old] is confirmed quiescent, because a re-drive must not
   re-poll a version whose counters some nodes have already collected
   (a GC'd node reports zeros while an un-GC'd one still holds the frozen
   true counts, so R = C could never re-establish). A crash during the
   phase-4 quiescence wait therefore resumes from [Switch_read] — nothing
   has been collected yet, so re-polling is sound — while a crash after
   the record resumes straight at the GC re-broadcast. *)
let run_advancement t cs =
  coord_check t cs;
  let rc = Coord_log.recover cs.cs_clog ~init_vu:initial_vu ~init_vr:initial_vr in
  let adv, start_phase, vu_old, vr_old, resuming =
    match rc.Coord_log.in_flight with
    | Some f ->
        ( f.Coord_log.f_adv,
          Coord_log.phase_number f.Coord_log.f_phase,
          f.Coord_log.f_vu_old,
          f.Coord_log.f_vr_old,
          true )
    | None -> (rc.Coord_log.completed + 1, 1, cs.cs_vu, cs.cs_vr, false)
  in
  let vu_new = vu_old + 1 and vr_new = vr_old + 1 in
  (* Log a phase entry — except the phase we are resuming into, whose
     record is the one we just recovered from. *)
  let enter phase =
    if not (resuming && Coord_log.phase_number phase = start_phase) then
      Coord_log.append cs.cs_clog
        (Coord_log.Phase { adv; phase; vu_old; vr_old; time = Sim.now t.sim })
  in
  if tracing t then
    if resuming then
      tr t cs.cs_name "resuming advancement %d from phase %d (WAL)" adv
        start_phase
    else
      tr t cs.cs_name "version advancement begins (vu %d -> %d)" vu_old vu_new;
  (* Phase 1: switch to the new update version. *)
  if start_phase <= 1 then begin
    enter Coord_log.Switch_update;
    broadcast t cs (Start_advancement { vu_new });
    await_acks t cs ~what:"phase 1 (start-advancement acks)"
      ~resend:(fun i ->
        send t ~src:cs.cs_id ~dst:i (Start_advancement { vu_new }))
      ~matches:(function
        | Adv_ack { from_node; vu } when vu = vu_new -> Some from_node
        | _ -> None);
    if tracing t then
      tr t cs.cs_name "phase 1 complete: all nodes on update version %d" vu_new
  end;
  (* Phase 2: wait for version vu_old to become mutually consistent. *)
  if start_phase <= 2 then begin
    enter Coord_log.Quiesce_update;
    await_quiescence t cs ~version:vu_old ();
    if tracing t then
      tr t cs.cs_name "phase 2 complete: version %d consistent across nodes"
        vu_old
  end;
  (* Phase 3: switch queries to the freshly consistent version, then wait
     for the old read version's subtransactions to drain. The new read
     version is published to the read-vector service the moment every
     member acknowledged the switch — cross-shard reads assigned from
     here on see this shard at [vr_new] — and the [vr_old] quiescence
     wait additionally defers while the service still has assigned-but-
     unarrived entries against [vr_old]. *)
  if start_phase <= 3 then begin
    enter Coord_log.Switch_read;
    broadcast t cs (Advance_read { vr_new });
    await_acks t cs ~what:"phase 3 (advance-read acks)"
      ~resend:(fun i -> send t ~src:cs.cs_id ~dst:i (Advance_read { vr_new }))
      ~matches:(function
        | Read_ack { from_node; vr } when vr = vr_new -> Some from_node
        | _ -> None);
    if tracing t then
      tr t cs.cs_name "phase 3 complete: read version is %d" vr_new;
    (match t.rvec with
    | Some rv -> Shard.Rvector.publish rv ~shard:cs.cs_shard ~vr:vr_new
    | None -> ());
    await_quiescence t cs ~vr_pending:true ~version:vr_old ()
  end;
  (* Phase 4: old readers have drained; garbage-collect. The advancement
     instance only finishes once every node acknowledged collecting: letting
     the next advancement overlap an in-flight GC notice would transiently
     yield a fourth version, breaking the paper's ≤3 bound (§4.4, 2a). *)
  enter Coord_log.Retire_read;
  (* Advance the live-tally window with the shard's GC floor. Quiescence
     on [vr_old] means tallies below [vr_new] are back to zero (a crashed
     replica's excused subtransactions can leave a stale nonzero tally, but
     the tally is only ever consulted for the advancement's current
     versions, never below the floor). *)
  Vwindow.gc_below cs.cs_live vr_new;
  broadcast t cs (Do_gc { keep = vr_new });
  if t.cfg.await_gc_acks then
    await_acks t cs ~what:"phase 4 (gc acks)"
      ~resend:(fun i -> send t ~src:cs.cs_id ~dst:i (Do_gc { keep = vr_new }))
      ~matches:(function
        | Gc_ack { from_node; keep } when keep = vr_new -> Some from_node
        | _ -> None);
  if tracing t then
    tr t cs.cs_name "phase 4 complete: version %d garbage-collected" vr_old;
  Coord_log.append cs.cs_clog (Coord_log.Committed { adv; time = Sim.now t.sim });
  cs.cs_vu <- vu_new;
  cs.cs_vr <- vr_new;
  cs.cs_advancements <- cs.cs_advancements + 1

(* Coordinator restart: replay the WAL into fresh volatile state. The epoch
   bump namespaces the reset poll-round counter on the wire, so pre-crash
   counter replies can never satisfy a post-restart poll. *)
let coord_recover t cs =
  let rc = Coord_log.recover cs.cs_clog ~init_vu:initial_vu ~init_vr:initial_vr in
  cs.cs_epoch <- rc.Coord_log.next_epoch;
  Coord_log.append cs.cs_clog
    (Coord_log.Started { epoch = cs.cs_epoch; time = Sim.now t.sim });
  cs.cs_poll_round <- 0;
  cs.cs_watch <- None;
  cs.cs_vu <- rc.Coord_log.vu;
  cs.cs_vr <- rc.Coord_log.vr;
  cs.cs_advancements <- rc.Coord_log.completed;
  cstat t "proto.coord_recoveries";
  if tracing t then
    tr t cs.cs_name "recovers from WAL: epoch %d, %d advancements committed%s"
      cs.cs_epoch rc.Coord_log.completed
      (match rc.Coord_log.in_flight with
      | Some f ->
          Printf.sprintf ", advancement %d in flight (phase %d)"
            f.Coord_log.f_adv
            (Coord_log.phase_number f.Coord_log.f_phase)
      | None -> "")

let coordinator_loop t cs () =
  (* Run one advancement to completion, recovering from any number of
     crashes along the way: each recovery replays the WAL and re-enters
     [run_advancement], which resumes at the last logged phase. *)
  let rec drive () =
    try run_advancement t cs
    with Coord_crashed ->
      coord_recover t cs;
      drive ()
  in
  let rec loop () =
    let reply = Mailbox.recv t.sim cs.cs_trigger in
    (* A crash that hit while idle is noticed here. The trigger that woke
       us is client intent, not volatile coordinator state — it survives
       the restart and is served below. *)
    (try coord_check t cs with Coord_crashed -> coord_recover t cs);
    (* Coalesce triggers that queued up while a previous advancement ran: a
       single advancement satisfies all of them (an advancement beginning
       after a trigger arrived publishes data at least as fresh as the
       trigger demanded). *)
    let replies = ref [ reply ] in
    let rec drain () =
      match Mailbox.try_recv cs.cs_trigger with
      | Some r ->
          replies := r :: !replies;
          drain ()
      | None -> ()
    in
    drain ();
    drive ();
    List.iter
      (function Some ivar -> Ivar.fill ivar () | None -> ())
      !replies;
    loop ()
  in
  loop ()

(* -------------------------------------------------------- public API *)

(* Fail-stop crash recovery (the paper's late-node rule as restart logic):
   the store, counters and local transaction state are durable (§3.1 — local
   DBMS transactions); the version registers are volatile. Rebuild them
   conservatively — [vu] from the highest version with allocated counters
   (counters are updated atomically with request/termination, so this is the
   pre-crash value), [vr] from the store's GC floor, which was globally
   consistent before any GC notice went out. The implicit-notification rules
   and the coordinator's retransmitted phase messages then catch the node up
   to the cluster's current versions. *)
let restart_recover t node =
  (* Group-aware seeding: the recovery handshake reads the durable frontier
     of {e every} member of the node's replica group, not just this node —
     a quorum advancement may have moved the cluster on while this replica
     was down, and seeding from local state alone would re-enter with a
     stale version pair. With [replicas = 1] the group is the singleton
     {node} and both folds reduce to the historical single-home derivation,
     so unreplicated recovery schedules are byte-identical. *)
  let members =
    Repl.Placement.members t.repl (Repl.Placement.group_of_node t.repl node.id)
  in
  let vu =
    List.fold_left
      (fun acc m -> Counters.fold_versions t.nodes.(m).cnt max acc)
      initial_vu members
  in
  (* Adopt the group's GC floor before deriving the read version: a floor
     the group certified while this replica slept is safe here too (the
     floor version was globally readable before any GC notice went out),
     and collecting up to it immediately keeps the ≤ 3 live-version window
     intact even if the next advancement begins before the retransmitted
     GC notice lands. *)
  let floor_group =
    List.fold_left
      (fun acc m -> max acc (Mvstore.gc_floor t.nodes.(m).store))
      (Mvstore.gc_floor node.store) members
  in
  if floor_group > Mvstore.gc_floor node.store then begin
    Mvstore.gc node.store ~new_read_version:floor_group;
    Counters.gc_below node.cnt floor_group
  end;
  let vr = max initial_vr (min (Mvstore.gc_floor node.store) (vu - 1)) in
  node.vu <- vu;
  node.vr <- vr;
  Counters.ensure_version node.cnt vu;
  wake_vr_waiters node;
  (* Readable-after-recovery: this replica may have slept through mirrors
     of updates at (or below) the recovered update version. Arm the gate at
     [vu]: reads are served here again only once the read version reaches
     it — i.e. once a quiescence round certified the suspect version with
     this replica live — and the channel's catch-up backlog has drained. *)
  if repl_on t then begin
    Repl.Recovery.mark t.recovery ~node:node.id ~frontier:vu;
    cstat t "repl.recoveries"
  end;
  if tracing t then
    tr t node.name "restarts; recovers vu=%d vr=%d from durable state" vu vr

let create sim (cfg : config) ?trace ?node_names ?link_latency ?faults () =
  if cfg.nodes <= 0 then invalid_arg "Engine.create: nodes must be positive";
  if cfg.replicas < 1 then
    invalid_arg "Engine.create: replicas must be at least 1";
  if cfg.replicas > cfg.nodes then
    invalid_arg "Engine.create: replicas must be in 1..nodes";
  if cfg.shards < 1 then invalid_arg "Engine.create: shards must be at least 1";
  if cfg.shards > cfg.nodes then
    invalid_arg "Engine.create: shards must not exceed nodes";
  if cfg.nodes mod cfg.shards <> 0 then
    invalid_arg
      "Engine.create: shards must divide nodes evenly (contiguous equal \
       shard blocks)";
  if cfg.nodes / cfg.shards mod cfg.replicas <> 0 then
    invalid_arg
      "Engine.create: nodes-per-shard must be a multiple of replicas (a \
       replica group must not straddle a shard boundary)";
  if cfg.replicas > 1 && cfg.nc_mode then
    invalid_arg
      "Engine.create: replication requires nc_mode off (non-commuting \
       overwrites are primary-pinned, so a failed-over read could miss them)";
  if cfg.shards > 1 && cfg.nc_mode then
    invalid_arg
      "Engine.create: sharding requires nc_mode off (2PC admission waits \
       on a single global frontier)";
  if cfg.hb_period < 0. then
    invalid_arg "Engine.create: hb_period must be non-negative";
  if cfg.hb_timeout <= cfg.hb_period then
    invalid_arg "Engine.create: hb_timeout must exceed hb_period";
  if cfg.phase_deadline <= 0. then
    invalid_arg "Engine.create: phase_deadline must be positive";
  let per_shard = cfg.nodes / cfg.shards in
  let inbox_capacity = max cfg.expected_inbox_depth 1 in
  let net =
    match link_latency with
    | None ->
        Network.create sim ~size:(cfg.nodes + cfg.shards) ~latency:cfg.latency
          ~inbox_capacity ()
    | Some f ->
        Network.create sim ~size:(cfg.nodes + cfg.shards) ~latency:cfg.latency
          ~link_latency:f ~inbox_capacity ()
  in
  let ch =
    Reliable.create
      ~config:
        {
          Reliable.acks = cfg.reliable_channel;
          retransmit = cfg.retransmit;
          timeout = cfg.retransmit_timeout;
          backoff = 2.0;
          max_backoff = 1.0;
        }
      net
  in
  let faults =
    match faults with Some f -> f | None -> Injector.create sim Fault.Plan.none
  in
  Injector.install faults net;
  (* Failure-detector subsystem (opt-in): a dedicated heartbeat side
     network with the fault injector's heartbeat-class filter installed,
     plus the suspicion state machine the coordinator's monitor daemon
     feeds. Nothing here exists when [hb_period = 0]. *)
  let fd =
    if cfg.hb_period <= 0. then None
    else begin
      let hb =
        Heartbeat.create sim ~size:(cfg.nodes + 1) ~monitor:cfg.nodes
          ~period:cfg.hb_period ~latency:cfg.latency ()
      in
      Injector.install_hb faults (Heartbeat.network hb);
      let det =
        Detector.create
          ~config:
            {
              Detector.default_config with
              Detector.period = cfg.hb_period;
              timeout = cfg.hb_timeout;
              max_horizon =
                Float.max Detector.default_config.Detector.max_horizon
                  (8. *. cfg.hb_timeout);
            }
          ~nodes:cfg.nodes ~now:(Sim.now sim) ()
      in
      Some { hb; det }
    end
  in
  let name_of i =
    match node_names with
    | Some names when i < Array.length names -> names.(i)
    | _ -> Printf.sprintf "n%d" i
  in
  let nodes =
    Array.init cfg.nodes (fun i ->
        {
          id = i;
          name = name_of i;
          shard = i / per_shard;
          vu = 1;
          vr = 0;
          store = Mvstore.create ();
          cnt = Counters.create ~nodes:per_shard;
          locks = Lockmgr.create sim ~deadlock_timeout:cfg.deadlock_timeout ();
          local_cc = Semaphore.create 1;
          pendings = Hashtbl.create 64;
          next_pending = 0;
          vr_waiters = [];
          nc_awaiting = Hashtbl.create 16;
          paused_until = 0.;
        })
  in
  Array.iter (fun node -> Counters.ensure_version node.cnt initial_vu) nodes;
  let cs =
    Array.init cfg.shards (fun s ->
        let clog = Coord_log.create () in
        Coord_log.append clog
          (Coord_log.Started { epoch = 0; time = Sim.now sim });
        {
          cs_shard = s;
          cs_id = cfg.nodes + s;
          cs_lo = s * per_shard;
          cs_n = per_shard;
          cs_name =
            (if cfg.shards = 1 then "coord" else Printf.sprintf "coord%d" s);
          cs_trigger = Mailbox.create ();
          cs_clog = clog;
          cs_live = Vwindow.create ();
          cs_epoch = 0;
          cs_crash_gen = 0;
          cs_seen_gen = 0;
          cs_down_until = 0.;
          cs_watch = None;
          cs_vu = initial_vu;
          cs_vr = initial_vr;
          cs_poll_round = 0;
          cs_poll_bufs =
            Array.init 2 (fun _ ->
                ( Array.make_matrix per_shard per_shard 0,
                  Array.make_matrix per_shard per_shard 0 ));
          cs_advancements = 0;
          cs_updates_since_trigger = 0;
          cs_divergence_since_trigger = 0.;
        })
  in
  let t =
    {
      sim;
      cfg;
      net;
      ch;
      faults;
      nodes;
      per_shard;
      cs;
      rvec =
        (if cfg.shards > 1 then
           Some (Shard.Rvector.create ~shards:cfg.shards ~init_vr:initial_vr)
         else None);
      rvec_assigned = Hashtbl.create 64;
      repl = Repl.Placement.create ~nodes:cfg.nodes ~replicas:cfg.replicas;
      recovery = Repl.Recovery.create ();
      fd;
      trace;
      counters_live = Counter_set.create ();
    }
  in
  (* The injector owns fault timing; the engine supplies the node-level
     effects. Bad node ids in a hand-built plan are ignored rather than
     crashing the scheduler callback. *)
  Injector.set_node_hooks faults
    ~pause:(fun ~node ~duration ~until_ ->
      if node >= 0 && node < cfg.nodes then begin
        let nd = t.nodes.(node) in
        nd.paused_until <- Float.max nd.paused_until until_;
        if tracing t then tr t nd.name "pauses for %gs (fault injection)" duration
      end)
    ~crash:(fun ~node ->
      if node >= 0 && node < cfg.nodes && tracing t then
        tr t t.nodes.(node).name
          "crashes (fault injection; volatile state lost)")
    ~restart:(fun ~node ->
      if node >= 0 && node < cfg.nodes then restart_recover t t.nodes.(node))
    ();
  (* Coordinator crash effects: the crash hook wipes volatile progress (the
     generation bump makes the coordinator fiber notice at its next check;
     the armed watch is cleared so no stale re-broadcast fires during the
     outage); the restart hook wakes a fiber parked in [recv] with a
     zero-payload self-send — the window is [at, restart), so a send at
     exactly [restart] passes the filter. The injector addresses one
     coordinator endpoint; plan-level coordinator crashes hit shard 0's
     (the "coordinator of one shard" failure-matrix row — the other
     shards keep advancing through the outage). *)
  let c0 = t.cs.(0) in
  Injector.set_coord faults ~id:c0.cs_id
    ~crash:(fun ~until_ ->
      c0.cs_crash_gen <- c0.cs_crash_gen + 1;
      c0.cs_down_until <- Float.max c0.cs_down_until until_;
      c0.cs_watch <- None;
      if tracing t then
        tr t c0.cs_name "crashes (fault injection; volatile phase state lost)")
    ~restart:(fun () ->
      if tracing t then tr t c0.cs_name "restarts; write-ahead log intact";
      send t ~src:c0.cs_id ~dst:c0.cs_id Coord_wake)
    ();
  (* Node server loops. *)
  Array.iter
    (fun node ->
      Sim.spawn sim ~daemon:true ~name:(Printf.sprintf "node-%s" node.name)
        (fun () ->
          let rec loop () =
            let msg = Reliable.recv t.ch ~node:node.id in
            (* Injected outage: a frozen node buffers its inbox. Everything
               already running locally proceeds; no new message is handled
               until the pause elapses. *)
            if Sim.now sim < node.paused_until then
              Sim.sleep sim (node.paused_until -. Sim.now sim);
            handle_node_msg t node msg;
            loop ()
          in
          loop ()))
    nodes;
  (* Heartbeat daemons: one sender per node and the coordinator-side
     monitor. A crashed node's sender keeps firing into the heartbeat
     filter, which drops everything from inside a crash window — exactly a
     real process that stops being heard, without the engine telling the
     detector anything. Pauses intentionally do {e not} silence heartbeats:
     a frozen-but-alive node is the classic false-suspicion hazard only
     when its beats are lost, which fault plans express directly
     ({!Fault.Plan.heartbeat_loss}). *)
  (match fd with
  | None -> ()
  | Some fd ->
      Array.iter
        (fun node ->
          Sim.spawn sim ~daemon:true ~name:(Printf.sprintf "hb-%s" node.name)
            (fun () ->
              let rec loop () =
                Heartbeat.beat fd.hb ~node:node.id;
                Sim.sleep sim cfg.hb_period;
                loop ()
              in
              loop ()))
        nodes;
      Sim.spawn sim ~daemon:true ~name:"hb-monitor" (fun () ->
          let rec loop () =
            let src = Heartbeat.recv fd.hb in
            if src >= 0 && src < cfg.nodes then
              Detector.heartbeat fd.det ~node:src ~now:(Sim.now sim);
            loop ()
          in
          loop ()));
  (* Coordinators — one fiber per shard. At [shards = 1] the fiber name is
     the historical "coordinator" so the spawn schedule (and hence every
     golden digest) is byte-identical to the single-coordinator engine. *)
  Array.iter
    (fun cs ->
      let name =
        if cfg.shards = 1 then "coordinator"
        else Printf.sprintf "coordinator%d" cs.cs_shard
      in
      Sim.spawn sim ~daemon:true ~name (coordinator_loop t cs))
    t.cs;
  (* Stall watchdogs — only spawned when a finite deadline is configured, so
     the default configuration's event schedule is untouched. *)
  if cfg.phase_deadline < infinity then
    Array.iter
      (fun cs ->
        let name =
          if cfg.shards = 1 then "coord-watchdog"
          else Printf.sprintf "coord-watchdog%d" cs.cs_shard
        in
        Sim.spawn sim ~daemon:true ~name (watchdog_loop t cs))
      t.cs;
  (* Advancement policy driver: one daemon triggers every shard in shard
     order, keeping cross-shard advancement cadence aligned rather than
     staggered by S independent clocks. *)
  (match cfg.policy with
  | Policy.Manual | Policy.Every_n_updates _ | Policy.Divergence _ -> ()
  | Policy.Periodic d ->
      Sim.spawn sim ~daemon:true ~name:"policy-periodic" (fun () ->
          let rec loop () =
            Sim.sleep sim d;
            Array.iter (fun cs -> Mailbox.send cs.cs_trigger None) t.cs;
            loop ()
          in
          loop ()));
  t

let name _ = "3v"

let submit t (spec : Spec.t) =
  (* Reject malformed specs up front: a bad node id inside a running
     subtransaction would otherwise kill a node's server loop. *)
  List.iter
    (fun n ->
      if n < 0 || n >= t.cfg.nodes then
        invalid_arg
          (Printf.sprintf "Engine.submit: %s targets node %d outside 0..%d"
             spec.Spec.label n (t.cfg.nodes - 1)))
    (Spec.nodes spec);
  (* Replica routing happens once, at submission: the whole tree is pinned
     to the serving replicas chosen now, so compensation (which inverts
     [rs_spec]) undoes work exactly where it ran. Routing never crosses a
     shard boundary (groups do not straddle shards), so the shard checks
     below are valid on the routed tree. *)
  let spec = route_spec t spec in
  (* Shard admission. Update trees must stay within one shard: each shard
     advances its own version frontier, so an update stamped with shard A's
     vu has no meaning in shard B's counter matrices. Cross-shard reads are
     the supported (and interesting) case — they get a consistent vector of
     per-shard read versions assigned atomically here. *)
  let vector =
    match t.rvec with
    | None -> None
    | Some rv ->
        let shard_of n = n / t.per_shard in
        let span =
          List.fold_left
            (fun acc n ->
              if List.mem (shard_of n) acc then acc else shard_of n :: acc)
            []
            (Spec.nodes spec)
        in
        if List.length span <= 1 then None
        else begin
          (match spec.Spec.kind with
          | Spec.Read_only -> ()
          | Spec.Commuting | Spec.Non_commuting ->
              invalid_arg
                (Printf.sprintf
                   "Engine.submit: update %s spans %d shards (updates must \
                    stay within one shard; only read-only transactions may \
                    cross shards)"
                   spec.Spec.label (List.length span)));
          (* One pending entry per shard entry point: the root, plus every
             child spawned across a shard boundary. Each opens a counter
             pair only on arrival; [Rvector] defers retiring the assigned
             versions until all have landed. *)
          let entries = Array.make t.cfg.shards 0 in
          let rec count parent_shard (st : Spec.subtxn) =
            let s = shard_of st.Spec.node in
            if s <> parent_shard then entries.(s) <- entries.(s) + 1;
            List.iter (count s) st.Spec.children
          in
          entries.(shard_of spec.Spec.root.Spec.node) <-
            entries.(shard_of spec.Spec.root.Spec.node) + 1;
          List.iter
            (count (shard_of spec.Spec.root.Spec.node))
            spec.Spec.root.Spec.children;
          cstat t "shard.vectored_reads";
          let vec = Shard.Rvector.assign rv ~entries in
          Hashtbl.replace t.rvec_assigned spec.Spec.id vec;
          Some vec
        end
  in
  let result = Ivar.create () in
  let now = Sim.now t.sim in
  let rs =
    {
      rs_spec = spec;
      rs_submit_time = now;
      rs_result = result;
      rs_root_commit = now;
      rs_compensated = false;
    }
  in
  cstat t "txn.submitted";
  (match spec.Spec.kind with
  | Spec.Read_only -> cstat t "txn.read_only"
  | Spec.Commuting -> cstat t "txn.commuting"
  | Spec.Non_commuting -> cstat t "txn.non_commuting");
  let root_node = spec.Spec.root.Spec.node in
  send t ~src:root_node ~dst:root_node
    (Subtxn
       {
         txn_id = spec.Spec.id;
         label = spec.Spec.label;
         kind = spec.Spec.kind;
         version = -1;
         source = root_node;
         parent = None;
         tree = spec.Spec.root;
         root = Some rs;
         compensating = false;
         vector;
       });
  (* Count-based advancement policy: updates are single-shard, so the
     count accrues to (and triggers) the root's shard coordinator. *)
  (match (t.cfg.policy, spec.Spec.kind) with
  | Policy.Every_n_updates n, (Spec.Commuting | Spec.Non_commuting) ->
      let cs = t.cs.(root_node / t.per_shard) in
      cs.cs_updates_since_trigger <- cs.cs_updates_since_trigger + 1;
      if cs.cs_updates_since_trigger >= n then begin
        cs.cs_updates_since_trigger <- 0;
        Mailbox.send cs.cs_trigger None
      end
  | _ -> ());
  result

let stats t =
  let out = Counter_set.merge t.counters_live (Counter_set.create ()) in
  let copies =
    Array.fold_left (fun acc n -> acc + Mvstore.copies_created n.store) 0 t.nodes
  in
  let dual =
    Array.fold_left (fun acc n -> acc + Mvstore.dual_writes n.store) 0 t.nodes
  in
  Counter_set.incr out "store.copies_created" ~by:copies ();
  Counter_set.incr out "store.dual_writes_total" ~by:dual ();
  Counter_set.incr out "net.messages" ~by:(Network.messages_sent t.net) ();
  Counter_set.incr out "net.remote_messages"
    ~by:(Network.remote_messages_sent t.net) ();
  Counter_set.incr out "advancements"
    ~by:(Array.fold_left (fun acc cs -> acc + cs.cs_advancements) 0 t.cs)
    ();
  (* Channel-hardening and fault-injection accounting; all zero in a
     fault-free run with the channel off. *)
  Counter_set.incr out "net.retransmissions" ~by:(Reliable.retransmissions t.ch) ();
  Counter_set.incr out "net.chan_acks" ~by:(Reliable.acks_sent t.ch) ();
  Counter_set.incr out "net.dedup_dropped" ~by:(Reliable.dup_dropped t.ch) ();
  (* Failure-detector accounting; absent entirely when the detector is off. *)
  (match t.fd with
  | None -> ()
  | Some fd ->
      Counter_set.incr out "fd.heartbeats_sent" ~by:(Heartbeat.sent fd.hb) ();
      Counter_set.incr out "fd.heartbeats_received"
        ~by:(Heartbeat.received fd.hb) ();
      Counter_set.incr out "fd.heartbeats_dropped"
        ~by:(Heartbeat.dropped fd.hb) ();
      Counter_set.incr out "fd.suspicions" ~by:(Detector.suspicions fd.det) ();
      Counter_set.incr out "fd.confirmed"
        ~by:(Detector.confirmations fd.det) ();
      Counter_set.incr out "fd.recoveries" ~by:(Detector.recoveries fd.det) ());
  Counter_set.merge out (Injector.stats t.faults)

let packed t =
  Txn.Engine_intf.Packed
    ( (module struct
        type nonrec t = t

        let name = name
        let submit = submit
        let stats = stats
      end),
      t )

let advance t =
  let ivar = Ivar.create () in
  if t.cfg.shards = 1 then Mailbox.send t.cs.(0).cs_trigger (Some ivar)
  else begin
    (* Trigger every shard and fill the caller's ivar once all have
       completed a round; per-shard ivars are joined by a collector
       fiber so the caller still gets one completion signal. *)
    let parts =
      Array.map
        (fun cs ->
          let part = Ivar.create () in
          Mailbox.send cs.cs_trigger (Some part);
          part)
        t.cs
    in
    Sim.spawn t.sim ~name:"advance-join" (fun () ->
        Array.iter (fun part -> Ivar.read t.sim part) parts;
        Ivar.fill ivar ())
  end;
  ivar

let check_node t i ctx =
  if i < 0 || i >= t.cfg.nodes then
    invalid_arg (Printf.sprintf "Engine.%s: node %d out of range" ctx i)

let update_version t ~node =
  check_node t node "update_version";
  t.nodes.(node).vu

let read_version t ~node =
  check_node t node "read_version";
  t.nodes.(node).vr

let store t ~node =
  check_node t node "store";
  t.nodes.(node).store

let counters t ~node =
  check_node t node "counters";
  t.nodes.(node).cnt

let inject_pause t ~node ~at ~duration =
  check_node t node "inject_pause";
  Injector.pause t.faults ~node ~at ~duration

let inject_crash t ~node ~at ~restart =
  check_node t node "inject_crash";
  Injector.crash t.faults ~node ~at ~restart

let inject_coord_crash t ~at ~restart =
  Injector.coord_crash t.faults ~at ~restart

let coord_log t = t.cs.(0).cs_clog

let shard_count t = t.cfg.shards

let shard_of_node t ~node =
  check_node t node "shard_of_node";
  node / t.per_shard

let read_vector t =
  match t.rvec with
  | Some rv -> Shard.Rvector.vector rv
  | None -> [| t.cs.(0).cs_vr |]

let assigned_vector t ~txn =
  Option.map Array.copy (Hashtbl.find_opt t.rvec_assigned txn)

let injector t = t.faults

let placement t = t.repl

let node_readable t ~node =
  check_node t node "node_readable";
  replica_readable t node

let detector t = Option.map (fun fd -> fd.det) t.fd

let node_suspected t ~node =
  check_node t node "node_suspected";
  match t.fd with
  | Some fd -> Detector.suspected fd.det ~node ~now:(Sim.now t.sim)
  | None -> false

let advancements_completed t =
  Array.fold_left (fun acc cs -> acc + cs.cs_advancements) 0 t.cs
let messages_sent t = Network.messages_sent t.net
let remote_messages_sent t = Network.remote_messages_sent t.net
let delivered_seen_size t = Network.delivered_seen_size t.net

let max_versions_ever t =
  Array.fold_left (fun acc n -> max acc (Mvstore.max_versions_ever n.store)) 1
    t.nodes
