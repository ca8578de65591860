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
module Key = Store.Key
module Spec = Txn.Spec
module Op = Txn.Op
module Value = Txn.Value
module Result = Txn.Result
module Lockmgr = Txn.Lockmgr
module Counter_set = Stats.Counter_set

(* The fields are documented in engine.mli. *)
type config = {
  nodes : int;
  shards : int;
  replicas : int;
  hb_period : float;
  hb_timeout : float;
  latency : Latency.t;
  think_time : float;
  poll_interval : float;
  phase_deadline : float;
  policy : Policy.t;
  nc_mode : bool;
  deadlock_timeout : float;
  abort_probability : float;
  debug_checks : bool;
  two_wave_quiescence : bool;
  await_gc_acks : bool;
  dual_writes : bool;
  reliable_channel : bool;
  retransmit : bool;
  retransmit_timeout : float;
  expected_inbox_depth : int;
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
      reads : (Key.t * Value.t) list;  (** the subtree's, in order *)
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
      r_nz : int array;
      c_nz : int array;
          (** the node's R row and C column for [version], nonzero entries
              only ({!Counters.sparse_r}, {!Counters.sparse_c}) *)
    }
  | Mirror of { txn_id : int; version : int; source : int; op : Op.t }
      (** group-addressed replica mirror of one committed commuting write:
          the receiving replica applies [op] to its own store with the
          dual-write rule and balances the counter pair the source opened.
          Mirrors never spawn children and never reply — quiescence (R = C)
          is what tells the coordinator they all landed *)
  | Do_gc of { keep : int }
  | Gc_ack of { from_node : int; keep : int }

type pending = {
  p_id : int;
  p_txn : int;
  p_label : string;
  p_kind : Spec.kind;
  p_version : int;
  p_source : int;
  p_parent : (int * int) option;
  p_compensating : bool;
  mutable p_stage : int;  (** the next step of the running section ({!run_section}) *)
  mutable p_outstanding : int;
  mutable p_local_done : bool;
  mutable p_reads_rev : (Key.t * Value.t) list;
      (** accumulated newest first, so adding a read or a child's reads
          copies no earlier read; {!reads_of} puts them in order *)
  mutable p_vote : vote;
  mutable p_nodes : int list;
      (** the subtree's nodes, sorted: kept only where NC3V reads them
          ({!tracks_nodes}), [[]] elsewhere *)
  mutable p_buffered : (Key.t * Op.t) list;  (** NC write intentions, reversed *)
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
  pendings : pending Id_ring.t;  (** live pendings by id; see {!no_pending} *)
  mutable next_pending : int;
  mutable vr_waiters : (unit -> unit) list;
  nc_awaiting : (int, int list ref) Hashtbl.t;
      (** txn id -> pending ids at this node awaiting a 2PC decision *)
  mutable paused_until : float;
      (** fault injection: the node processes no messages before this time *)
}

(* The pendings ring's filler: what [Id_ring.find] returns for an id with
   no live pending. No subtransaction is it, and nothing writes to it. *)
let no_pending =
  {
    p_id = -1;
    p_txn = -1;
    p_label = "";
    p_kind = Spec.Read_only;
    p_version = -1;
    p_source = -1;
    p_parent = None;
    p_compensating = false;
    p_stage = 0;
    p_outstanding = 0;
    p_local_done = false;
    p_reads_rev = [];
    p_vote = Vote_commit;
    p_nodes = [];
    p_buffered = [];
    p_root = None;
    p_vector = None;
  }

(* A pending's reads in execution order. *)
let reads_of p =
  match p.p_reads_rev with ([] | [ _ ]) as reads -> reads | reads -> List.rev reads

(* A coordinator's one open wait (phase acks or a counter poll round): a
   reply from every [w_required] member, [w_needed] of them still owed.
   The stall watchdog re-sends [w_request] to the members not yet in
   [w_answered] whenever [w_deadline] passes with the wait still open,
   doubling [w_interval] (bounded) each time. *)
type wait = {
  mutable w_request : msg;  (** what the members owe a reply to *)
  mutable w_required : bool array;  (** by member offset *)
  mutable w_answered : bool array;
  mutable w_needed : int;
  mutable w_parked : bool;
      (** in a receive on an empty inbox: the next arrival, or a wake,
          queues the wait's next step *)
  mutable w_round : int;  (** the last counter poll round sent *)
  mutable w_prev : Repl.Quorum.round option;
      (** the running quiescence wait's previous round, if it had one *)
  mutable w_watched : bool;  (** armed for the watchdog *)
  mutable w_deadline : float;
  mutable w_interval : float;
}

(* The failure-detector subsystem, present only when [hb_period > 0]: the
   heartbeat side network plus the suspicion state machine fed from it. *)
type fd_state = { hb : Heartbeat.t; det : Detector.t }

(* What one {!advance} call waits on: the trigger it sends every shard
   carries it, and the last of the [c_left] shards to finish the round it
   triggered fills [c_done]. *)
type completion = { mutable c_left : int; c_done : unit Ivar.t }

(* One shard's coordinator, a state machine over the advancement's WAL
   phases: the complete volatile + durable advancement state. Shard [s]
   owns the contiguous node block [cs_lo, cs_lo + cs_n) and the network
   endpoint [nodes + s]; at [shards = 1] there is exactly one of these, at
   endpoint [nodes] over all nodes. *)
type coord = {
  cs_shard : int;
  cs_id : int;  (** network endpoint: [cfg.nodes + cs_shard] *)
  cs_lo : int;  (** first member node id *)
  cs_n : int;  (** member count ([cfg.nodes / cfg.shards]) *)
  cs_name : string;  (** trace site: ["coord"] at [shards = 1] *)
  cs_trigger : completion option Mailbox.t;
      (** advancement requests; an advancement takes every queued one *)
  mutable cs_served : completion option list;
      (** the requests the running advancement serves, newest first:
          client intent, kept across crashes *)
  cs_clog : Coord_log.t;  (** durable: survives coordinator crashes *)
  cs_live : Vwindow.t;  (** version -> requested-but-unterminated, this shard *)
  cs_census : Counters.census;
      (** the version census all member counter tables report to: the
          shard's distinct counter versions, kept as they change *)
  mutable cs_epoch : int;  (** bumped on each coordinator recovery *)
  mutable cs_flight : Coord_log.in_flight;
      (** the advancement being run, or the last one run, and its WAL phase *)
  mutable cs_down : bool;  (** crashed, and the crash not yet noticed *)
  mutable cs_down_until : float;
  cs_wait : wait;
  cs_acked : bool array;  (** an ack wait's answered members *)
  mutable cs_vu : int;
  mutable cs_vr : int;
  cs_poll_bufs : Repl.Quorum.round array;
      (** two rounds of sparse replies, alternated by poll-round parity.
          The quiescence loop only ever compares a round against the
          previous one, so exactly two generations are live at once. A
          reply overwrites its member's R row and C column; no clearing
          between rounds, because the decisions read only members that
          replied (see {!Repl.Quorum.round}). Peer indices are shard-local
          (cross-shard counter pairs are structurally zero — update trees
          never leave their shard and read entries open self pairs on
          arrival). *)
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
  rvec_entries : int array;
      (** [submit]'s scratch: a cross-shard read's entries per shard,
          handed to {!Shard.Rvector.assign} and zeroed again *)
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

(* Emit one trace event. Every call site sits under [if tracing t] (lint
   R4), so an untraced run evaluates neither the format's arguments nor the
   counter lookups feeding them, and renders nothing. Tracing never affects
   scheduling, so traced and untraced runs produce identical event
   schedules. [Printf.ksprintf] rather than [Format.kasprintf]: every [tr]
   format uses only %s/%d/%g, where the two render identically, and Printf
   skips the pretty-printing engine. *)
let[@inline] tracing t = t.trace <> None

let tr t site fmt =
  Printf.ksprintf
    (fun what ->
      match t.trace with
      | Some trace ->
          (* lint: trace-ok — [tr] runs only under [if tracing t]; this is
             the one emission. *)
          Trace.emit trace ~time:(Sim.now t.sim) ~site what
      | None -> ())
    fmt

let node_name t i =
  if i >= t.cfg.nodes then t.cs.(i - t.cfg.nodes).cs_name else t.nodes.(i).name

(* The endpoint a node's protocol replies go to: its own shard's
   coordinator: [cfg.nodes] at [shards = 1]. *)
let[@inline] coord_ep t node = t.cfg.nodes + node.shard

(* ------------------------------------------------- oracle & counters *)

(* Live-subtransaction tallies are per shard: each shard's version
   timeline is independent, and quiescence only ever asks about the
   asking shard's own versions. *)
let live_bump t node version delta = Vwindow.add t.cs.(node.shard).cs_live version delta

(* Node counter rows are shard-local, [t.per_shard] entries wide: update
   confinement means a node only ever opens counter pairs with members of
   its own shard (cross-shard reads open {e self} pairs at the entry node),
   so the peer index into a row is the peer's offset inside the shard
   block. At [shards = 1] this is the identity and rows are nodes-wide.
   Keeping rows per-shard makes every counter snapshot a poll reply
   carries O(per) instead of O(nodes), which is where a sharded
   advancement's machine cost would otherwise hide. *)
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

(* The paper's "three distinct numbers suffice" observation (§4), per
   shard: each shard's version timeline is independent. Read from the
   shard's census, so the check runs in O(1) while the bound holds; only a
   census over three versions lists them. Under replication the window
   leaves out crashed members: a crashed replica's durable counters freeze,
   so a quorum advancement running ahead of the outage keeps the dead
   replica's stale versions in the census until restart adopts the group's
   GC floor ({!restart_recover}). The paper's bound is about live state. *)
let shard_window t ~shard =
  let cs = t.cs.(shard) in
  let excluding =
    if t.cfg.replicas = 1 then []
    else
      (* lint: oracle-ok — a debug-check assertion about genuinely live
         state (the paper's three-version bound), not a protocol decision:
         ground truth is the point here. *)
      Injector.down_nodes t.faults ~at:(Sim.now t.sim)
      |> List.filter_map (fun i ->
             if i >= cs.cs_lo && i < cs.cs_lo + cs.cs_n then Some t.nodes.(i).cnt
             else None)
  in
  Counters.census_versions ~excluding cs.cs_census

let version_window ?shard t =
  match shard with
  | Some shard -> shard_window t ~shard
  | None ->
      Array.fold_left
        (fun acc cs -> List.rev_append (Counters.census_versions cs.cs_census) acc)
        [] t.cs
      |> List.sort_uniq Int.compare

let check_version_window_shard t ~shard =
  if t.cfg.debug_checks && Counters.distinct t.cs.(shard).cs_census > 3 then begin
    let window = shard_window t ~shard in
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

(* NC3V reads a subtree's nodes at a non-commuting root (the decision's
   recipients) and at a commuting root in [nc_mode] (the lock clean-up's);
   no other pending keeps them. *)
let tracks_nodes t kind =
  match kind with
  | Spec.Non_commuting -> true
  | Spec.Commuting -> t.cfg.nc_mode
  | Spec.Read_only -> false

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
          let p = Id_ring.find node.pendings pid in
          if p != no_pending then begin
            Id_ring.remove node.pendings pid;
            if commit then
              List.iter
                (fun (key, op) ->
                  Mvstore.write_exact node.store ~key ~version:p.p_version
                    ~init:Value.empty ~f:Op.apply op p.p_txn;
                  note_divergence t node op)
                (List.rev p.p_buffered);
            bump_c t node ~version:p.p_version ~src:p.p_source;
            if tracing t then begin
              let cv =
                Counters.c node.cnt ~version:p.p_version
                  ~src:(cnt_ix t node p.p_source)
              in
              tr t node.name "nc subtx %s %s; C%d[%s->%s]=%d" p.p_label
                (if commit then "commits" else "aborts")
                p.p_version (node_name t p.p_source) node.name cv
            end
          end)
        (List.rev !ids);
      Lockmgr.release_all node.locks ~owner:txn_id

(* ------------------------------------------------ subtxn execution *)

let wake_vr_waiters node =
  let ws = List.rev node.vr_waiters in
  node.vr_waiters <- [];
  List.iter (fun w -> w ()) ws

(* A section's name, rendered only when one of its steps fails. *)
let section_name node p ~wave =
  if wave then Printf.sprintf "%s/%s-compensation" node.name p.p_label
  else Printf.sprintf "%s/%s#%d" node.name p.p_label p.p_id

(* The sections {!nc_gate} holds up: a non-commuting root waits for its
   admission, and in [nc_mode] every update takes locks. *)
let nc_admission p = p.p_kind = Spec.Non_commuting && p.p_parent = None
let nc_locks t p = t.cfg.nc_mode && p.p_kind <> Spec.Read_only

(* NC3V's gate in front of a section's local critical section (§5): a
   non-commuting root waits until [vu = vr + 1] at its node, i.e. until no
   advancement of its version is in progress (step 2); then, in [nc_mode],
   an update takes its lock plan key by key, outside the critical section
   so that a blocked one never stalls the node. A parked admission resumes
   on the event [wake_vr_waiters] queues, a queued lock request on the one
   its verdict queues: the events a process blocked there resumes on. [k]
   continues the section, with [true] once every lock is held; a refused
   lock votes abort and passes [false]. *)
let nc_gate t node p (tree : Spec.subtxn) k =
  let nc = p.p_kind = Spec.Non_commuting in
  let timeout = if nc then t.cfg.deadlock_timeout else infinity in
  (* A step that a wake resumes fails under the section's name too. *)
  let resumed f x = try f x with exn -> Sim.fail t.sim (section_name node p ~wave:false) exn in
  let rec lock = function
    | [] -> k true
    | (key, mode) :: plan ->
        Lockmgr.acquire_then node.locks ~timeout ~owner:p.p_txn ~key ~mode
          (resumed (function
            | Lockmgr.Granted -> lock plan
            | Lockmgr.Deadlock -> refuse "deadlock"
            | Lockmgr.Timeout -> refuse "lock-timeout"
            | Lockmgr.Cancelled -> refuse "cancelled"))
  and refuse reason =
    p.p_vote <- Vote_abort reason;
    k false
  in
  let locks () =
    if nc_locks t p then
      lock
        (Lockmgr.plan ~read:(if nc then Lockmgr.Non_commute else Lockmgr.Commute_read)
           ~write:(if nc then Lockmgr.Non_commute else Lockmgr.Commute_update)
           tree.Spec.ops)
    else k true
  in
  let rec admit () =
    if p.p_version = node.vr + 1 then locks ()
    else
      node.vr_waiters <-
        (fun () -> Sim.schedule t.sim ~delay:0. (resumed admit)) :: node.vr_waiters
  in
  if nc_admission p then begin
    if p.p_version <> node.vr + 1 && tracing t then
      tr t node.name "nc tx %s waits for vu = vr + 1" p.p_label;
    admit ()
  end
  else locks ()

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
          tr t node.name "mirrors %s of tx %s to %s; R%d[%s->%s]=%d"
            (Key.name (Op.key op)) p.p_label (node_name t peer) p.p_version node.name
            (node_name t peer) rv
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
          let value =
            match Mvstore.read_visible node.store ~key ~version:p.p_version with
            | Some value -> value
            | None -> Value.empty
          in
          if tracing t then
            tr t node.name "tx %s reads %s version %d" p.p_label (Key.name key)
              (Mvstore.visible_version node.store ~key ~version:p.p_version);
          p.p_reads_rev <- (key, value) :: p.p_reads_rev
      | Op.Incr _ | Op.Append _ | Op.Overwrite _ ->
          if t.cfg.dual_writes then
            Mvstore.write_upward node.store ~key:(Op.key op) ~version:p.p_version
              ~init:Value.empty ~f:Op.apply op p.p_txn
          else
            Mvstore.write_exact node.store ~key:(Op.key op) ~version:p.p_version
              ~init:Value.empty ~f:Op.apply op p.p_txn;
          note_divergence t node op;
          mirror_write t node p op;
          if tracing t then begin
            let versions =
              List.filter
                (fun v -> v >= p.p_version)
                (Mvstore.versions_of node.store ~key:(Op.key op))
            in
            tr t node.name "tx %s updates %s version%s %s" p.p_label
              (Key.name (Op.key op))
              (if List.length versions > 1 then "s" else "")
              (pp_int_list (List.sort compare versions))
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
              | Some value -> value
              | None -> Value.empty
            in
            p.p_reads_rev <- (key, value) :: p.p_reads_rev
        | Op.Incr _ | Op.Append _ | Op.Overwrite _ ->
            let key = Op.key op in
            if Mvstore.exists_above node.store ~key ~version:p.p_version then begin
              (* §5 step 4: a higher version exists — K must abort. *)
              p.p_vote <- Vote_abort "version-overtaken";
              if tracing t then
                tr t node.name "nc tx %s overtaken on %s; votes abort"
                  p.p_label (Key.name key);
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
          tr t node.name "subtx of %s issued to %s; R%d[%s->%s]=%d" p.p_label
            (node_name t child.Spec.node)
            p.p_version node.name
            (node_name t child.Spec.node)
            rv
        end
      end
      else if tracing t then
        tr t node.name "subtx of %s crosses to shard %d at %s (vector version %d)"
          p.p_label child_shard
          (node_name t child.Spec.node)
          child_version;
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

(* --------------------------------------------------------- completion *)

(* The three ways a subtransaction's termination leaves [maybe_finish]:
   registering for a 2PC decision, reporting to the parent, and filling
   the root's result. *)
let register_awaiting node p =
  match Hashtbl.find_opt node.nc_awaiting p.p_txn with
  | Some ids -> ids := p.p_id :: !ids
  | None -> Hashtbl.replace node.nc_awaiting p.p_txn (ref [ p.p_id ])

let send_completion t node p (parent_node, parent_pid) =
  send t ~src:node.id ~dst:parent_node
    (Completion
       {
         pending_id = parent_pid;
         child_label = p.p_label;
         reads = reads_of p;
         vote = p.p_vote;
         nodes = p.p_nodes;
       })

let fill_result t node p rs outcome =
  Ivar.fill rs.rs_result
    {
      Result.txn_id = p.p_txn;
      outcome;
      version = p.p_version;
      served_by = node.id;
      reads = reads_of p;
      submit_time = rs.rs_submit_time;
      root_commit_time = rs.rs_root_commit;
      complete_time = Sim.now t.sim;
    }

(* A subtransaction "terminates" (paper §4.1 step 6 / Table 1 semantics)
   once its local work is done and all its children have terminated. *)
let rec maybe_finish t node p =
  if p.p_local_done && p.p_outstanding = 0 then begin
    match (p.p_kind, p.p_root) with
    | Spec.Non_commuting, None ->
        (* Participant: send the vote up; await the root's decision. *)
        register_awaiting node p;
        send_completion t node p (Option.get p.p_parent)
    | Spec.Non_commuting, Some rs ->
        (* Root: decide, apply locally, broadcast the decision. The root is
           still registered, so [apply_decision] handles it too. *)
        let commit = p.p_vote = Vote_commit in
        register_awaiting node p;
        apply_decision t node ~txn_id:p.p_txn ~commit;
        List.iter
          (fun n ->
            if n <> node.id then
              send t ~src:node.id ~dst:n (Decision { txn_id = p.p_txn; commit }))
          p.p_nodes;
        if tracing t then
          tr t node.name "nc tx %s decision: %s" p.p_label
            (if commit then "commit" else "abort");
        cstat t (if commit then "txn.committed" else "txn.aborted");
        fill_result t node p rs
          (match p.p_vote with
          | Vote_commit -> Result.Committed
          | Vote_abort reason -> Result.Aborted reason)
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
        run_section t node p (invert_tree rs.rs_spec.Spec.root) ~wave:true
    | (Spec.Read_only | Spec.Commuting), _ ->
        Id_ring.remove node.pendings p.p_id;
        bump_c t node ~version:p.p_version ~src:p.p_source;
        (match (p.p_parent, p.p_root) with
        | Some parent, _ ->
            if tracing t then begin
              let cv =
                Counters.c node.cnt ~version:p.p_version
                  ~src:(cnt_ix t node p.p_source)
              in
              tr t node.name "subtx %s terminates; C%d[%s->%s]=%d" p.p_label
                p.p_version (node_name t p.p_source) node.name cv
            end;
            send_completion t node p parent
        | None, None -> assert false
        | None, Some rs ->
            if tracing t then begin
              let cv =
                Counters.c node.cnt ~version:p.p_version
                  ~src:(cnt_ix t node p.p_source)
              in
              tr t node.name "tx %s is complete; C%d[%s->%s]=%d" p.p_label
                p.p_version node.name node.name cv
            end;
            (* Asynchronous clean-up of commute locks (§5). *)
            if t.cfg.nc_mode && p.p_kind = Spec.Commuting then
              List.iter
                (fun n ->
                  send t ~src:node.id ~dst:n (Cleanup { txn_id = p.p_txn }))
                p.p_nodes;
            cstat t
              (if rs.rs_compensated then "txn.compensated" else "txn.committed");
            fill_result t node p rs
              (if rs.rs_compensated then Result.Aborted "compensated"
               else Result.Committed))
  end

and handle_completion t node ~pending_id ~child_label ~reads ~vote ~nodes =
  let p = Id_ring.find node.pendings pending_id in
  if p == no_pending then
    invalid_arg
      (Printf.sprintf "Engine: completion for unknown pending %d at node %d"
         pending_id node.id);
  if tracing t then
    tr t node.name "completion notice for subtx %s arrives" child_label;
  p.p_reads_rev <- List.rev_append reads p.p_reads_rev;
  p.p_vote <- combine_vote p.p_vote vote;
  if tracks_nodes t p.p_kind then p.p_nodes <- merge_nodes p.p_nodes nodes;
  p.p_outstanding <- p.p_outstanding - 1;
  maybe_finish t node p

(* One subtransaction's local work as kernel callbacks: the tree's
   [think]; NC3V's admission wait and locks ({!nc_gate}) where they apply;
   then [node]'s local critical section ([local_cc], with [cfg.think_time]
   inside it) running the tree's operations, the release, then what
   follows: for an ordinary section the abort draw, the children and
   termination; for the compensation wave ([wave], no think, no gate) the
   inverse children. Each hand-over takes the events a process running
   the same steps takes, or schedules change: the first step runs on an
   event queued at the current instant, each think is [Sim.after]'s two
   events (a sleep's), and a contended permit, lock or admission resumes
   on the event its release queues (a blocked process's waker's).
   test_simul's dispatch oracle holds the two shapes equal. The section is
   one closure, [resume], that every hand-over resumes: [p.p_stage] names
   the step it runs next. The gate's state lives in the gate's own
   closures, so a section without one allocates nothing for it. A failing
   step stops the run under the section's name. A section still parked on
   a lock or an admission when a run ends shows as its transaction's
   unresolved result. *)
and run_section t node p (tree : Spec.subtxn) ~wave =
  p.p_stage <- 0;
  let rec resume () =
    try
      match p.p_stage with
      | 0 ->
          p.p_stage <- 1;
          let think = if wave then 0. else tree.Spec.think in
          if think > 0. then Sim.after t.sim think resume else resume ()
      | 1 ->
          p.p_stage <- 2;
          if wave || not (nc_admission p || nc_locks t p) then resume ()
          else
            nc_gate t node p tree (fun admitted ->
                if not admitted then p.p_stage <- 5;
                resume ())
      | 2 ->
          p.p_stage <- 3;
          Semaphore.acquire_then t.sim node.local_cc resume
      | 3 ->
          p.p_stage <- 4;
          if t.cfg.think_time > 0. then Sim.after t.sim t.cfg.think_time resume
          else resume ()
      | 4 ->
          (match p.p_kind with
          | Spec.Read_only | Spec.Commuting -> run_ops_commuting t node p tree.Spec.ops
          | Spec.Non_commuting -> ignore (run_ops_nc t node p tree.Spec.ops));
          Semaphore.release node.local_cc;
          if wave then begin
            if tracing t then
              tr t node.name "tx %s compensates (wave starts)" p.p_label;
            spawn_children t node p tree.Spec.children ~compensating:true;
            p.p_outstanding <- p.p_outstanding - 1;
            maybe_finish t node p
          end
          else begin
            after_section t node p tree ~compensating:p.p_compensating;
            local_done t node p
          end
      | _ ->
          (* The gate refused a lock: the vote is abort, and neither the
             operations nor the children run. *)
          cstat t "txn.lock_failure";
          (match p.p_vote with
          | Vote_abort reason when tracing t ->
              tr t node.name "nc tx %s lock failure (%s); votes abort" p.p_label
                reason
          | _ -> ());
          local_done t node p
    with exn -> Sim.fail t.sim (section_name node p ~wave) exn
  in
  Sim.schedule t.sim ~delay:0. resume

(* After the local critical section: the §3.2 abort draw, then the
   children (§4.1 step 5). *)
and after_section t node p (tree : Spec.subtxn) ~compensating =
  cstat t "subtxn.executed";
  (* Fault injection for §3.2: any commuting subtransaction may abort at
     its commit point (its local effects already applied). The abort vote
     propagates to the root, which runs the single compensation wave.
     Compensating subtransactions themselves never re-abort. *)
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
    spawn_children t node p tree.Spec.children ~compensating

(* Local work done: stamp the root's commit time, then terminate once the
   children have. *)
and local_done t node p =
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
          tr t node.name "vectored read tx %s arrives; version %d; R%d[%s->%s]=%d"
            label v v node.name node.name rv
        end;
        v
    | None, Spec.Read_only ->
        let v = node.vr in
        bump_r t node ~version:v ~dst:node.id;
        if tracing t then begin
          let rv = Counters.r node.cnt ~version:v ~dst:(cnt_ix t node node.id) in
          tr t node.name "read tx %s arrives; version %d; R%d[%s->%s]=%d" label v v
            node.name node.name rv
        end;
        v
    | None, (Spec.Commuting | Spec.Non_commuting) ->
        let v = node.vu in
        bump_r t node ~version:v ~dst:node.id;
        if tracing t then begin
          let rv = Counters.r node.cnt ~version:v ~dst:(cnt_ix t node node.id) in
          tr t node.name "update tx %s arrives; version %d; R%d[%s->%s]=%d" label v v
            node.name node.name rv
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
          tr t node.name
            "entry subtx of %s arrives from %s; version %d; R%d[%s->%s]=%d"
            label (node_name t source) version version node.name node.name rv
        end;
        version
    | Some _, _ ->
        if tracing t then
          tr t node.name "subtx of %s arrives from %s (version %d)" label
            (node_name t source) version;
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
      p_stage = 0;
      p_outstanding = 0;
      p_local_done = false;
      p_reads_rev = [];
      p_vote = Vote_commit;
      p_nodes = (if tracks_nodes t kind then [ node.id ] else []);
      p_buffered = [];
      p_root = root;
      p_vector = vector;
    }
  in
  Id_ring.add node.pendings p.p_id p;
  run_section t node p tree ~wave:false

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
             r_nz = Counters.sparse_r node.cnt ~version;
             c_nz = Counters.sparse_c node.cnt ~version;
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
      Mvstore.write_upward node.store ~key:(Op.key op) ~version:(max version floor)
        ~init:Value.empty ~f:Op.apply op txn_id;
      if version >= floor then
        Counters.incr_c node.cnt ~version ~src:(cnt_ix t node source);
      cstat t "repl.mirror_applies";
      if tracing t then
        tr t node.name "mirror from %s applies %s at version %d (floor %d)"
          (node_name t source) (Key.name (Op.key op)) version floor
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
  | Adv_ack _ | Read_ack _ | Counter_reply _ | Gc_ack _ ->
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

(* Each shard's coordinator is a state machine (PROTOCOL.md §9.5): its
   record holds the WAL phase it runs, whether it is down and its one open
   wait, and each input moves it by one transition ({!coordinator_loop}).
   Each hand-over takes the events of a process blocked at the same step:
   a request or an inbox arrival queues the transition at the current
   instant, as a receive's wake does, and the poll interval and the rest
   of a down window take [Sim.after]'s two events, a sleep's. The inbox is
   read only while a wait is open. *)
type input =
  | Trigger  (** an advancement request reached the idle coordinator *)
  | Inbox  (** a packet reached the inbox of a parked wait *)
  | Wake  (** the restart's or an excusal's wake reached a parked wait *)
  | Poll_due  (** the poll interval after an unsettled round ran out *)
  | Up  (** the rest of a noticed crash's down window ran out *)
  | Tick  (** the stall watchdog's [phase_deadline / 4] cadence *)
  | Crash of float  (** the crash hook, down until the given time *)
  | Restart  (** the restart hook *)

(* The shard members a coordinator wait needs a reply from, indexed by
   member offset ([0 .. cs_n)). Under replication that is the quorum rule
   ({!Repl.Quorum.required}): every live member, plus every member of a
   fully-dead group, whose versions no surviving replica can vouch for.
   Groups never straddle shards, so each shard's block is a union of whole
   groups. With [replicas = 1] every member is required without a probe:
   a crashed node blocks the wait until the channel's retransmissions
   reach its restart. *)
let poll_required t cs =
  if not (repl_on t) then Array.make cs.cs_n true
  else begin
    let req, lost =
      Repl.Quorum.required t.repl ~lo:cs.cs_lo ~n:cs.cs_n ~live:(node_live t)
    in
    if lost then cstat t "repl.quorum_lost";
    req
  end

(* The node a reply to the open wait came from, or [-1] for other inbox
   traffic (acks of a superseded phase, replies to a stale poll round).
   Counter replies match on (epoch, round, version): the epoch namespaces
   rounds across coordinator restarts. *)
let reply_sender cs msg =
  match (cs.cs_wait.w_request, msg) with
  | Start_advancement { vu_new }, Adv_ack { from_node; vu } when vu = vu_new -> from_node
  | Advance_read { vr_new }, Read_ack { from_node; vr } when vr = vr_new -> from_node
  | Do_gc { keep }, Gc_ack { from_node; keep = k } when k = keep -> from_node
  | ( Counter_query { version; round; epoch },
      Counter_reply { from_node; version = v; round = r; epoch = e; _ } )
    when v = version && r = round && e = epoch ->
      from_node
  | _ -> -1

(* The version a quiescence wait polls: phase 2 waits out [vu_old]'s
   writers, phase 3 [vr_old]'s readers. *)
let polled_version cs =
  let f = cs.cs_flight in
  if f.Coord_log.f_phase = Coord_log.Switch_read then f.f_vr_old else f.f_vu_old

(* The open wait, as the watchdog's trace names it. *)
let wait_name cs =
  match (cs.cs_wait.w_request, cs.cs_flight.Coord_log.f_phase) with
  | Counter_query { version; round; _ }, _ ->
      Printf.sprintf "counter poll round %d (version %d)" round version
  | _, Coord_log.Switch_update -> "phase 1 (start-advancement acks)"
  | _, Coord_log.Switch_read -> "phase 3 (advance-read acks)"
  | _, Coord_log.Retire_read -> "phase 4 (gc acks)"
  | _, Coord_log.Quiesce_update -> assert false (* phase 2 only polls *)

(* Take every queued advancement request: one advancement beginning after
   a request arrived serves them all. *)
let take_requests cs =
  while Mailbox.length cs.cs_trigger > 0 do
    cs.cs_served <- Mailbox.take cs.cs_trigger :: cs.cs_served
  done

(* Coordinator restart: replay the WAL into fresh volatile state. The epoch
   bump namespaces the reset poll-round counter on the wire, so pre-crash
   counter replies can never satisfy a post-restart poll. *)
let coord_recover t cs =
  let rc = Coord_log.recover cs.cs_clog ~init_vu:initial_vu ~init_vr:initial_vr in
  cs.cs_epoch <- rc.Coord_log.next_epoch;
  Coord_log.append cs.cs_clog
    (Coord_log.Started { epoch = cs.cs_epoch; time = Sim.now t.sim });
  cs.cs_wait.w_round <- 0;
  cs.cs_wait.w_watched <- false;
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

(* One transition of shard [cs]'s coordinator on [input]. A failing step
   stops the run under the coordinator's name. *)
let rec coordinator_loop t cs input =
  let w = cs.cs_wait in
  try
    match input with
    | Trigger -> if cs.cs_down then notice_crash t cs else resume_advancement t cs
    | Inbox -> take_replies t cs
    | Wake ->
        if cs.cs_down then notice_crash t cs
        else if w.w_needed > 0 then take_replies t cs
        else wait_done t cs
    | Poll_due -> if cs.cs_down then notice_crash t cs else poll_counters t cs
    | Up ->
        coord_recover t cs;
        resume_advancement t cs
    | Tick ->
        (* Past the deadline: record the stall, excuse newly suspected
           members, re-send the request to every member that has not
           answered, and double the interval with a bound. *)
        if w.w_watched && Sim.now t.sim >= w.w_deadline then begin
          cstat t "proto.phase_stalled";
          if tracing t then
            tr t cs.cs_name "watchdog: %s stalled for %gs; re-broadcasting"
              (wait_name cs) w.w_interval;
          excuse_suspected t cs;
          Array.iteri
            (fun i done_ ->
              if not done_ then send t ~src:cs.cs_id ~dst:(cs.cs_lo + i) w.w_request)
            w.w_answered;
          w.w_interval <- Float.min (w.w_interval *. 2.) (8. *. t.cfg.phase_deadline);
          w.w_deadline <- Sim.now t.sim +. w.w_interval
        end
    | Crash until_ ->
        cs.cs_down <- true;
        cs.cs_down_until <- Float.max cs.cs_down_until until_;
        w.w_watched <- false;
        if tracing t then
          tr t cs.cs_name "crashes (fault injection; volatile phase state lost)"
    | Restart ->
        if tracing t then tr t cs.cs_name "restarts; write-ahead log intact";
        wake t cs
  with exn ->
    Sim.fail t.sim
      (if t.cfg.shards = 1 then "coordinator"
       else Printf.sprintf "coordinator%d" cs.cs_shard)
      exn

(* Between advancements: begin the next at once if requests queued while
   the last one ran, else wait for one. *)
and await_request t cs =
  if Mailbox.length cs.cs_trigger > 0 then resume_advancement t cs
  else
    Mailbox.on_arrival cs.cs_trigger (fun () ->
        Sim.schedule t.sim ~delay:0. (fun () -> coordinator_loop t cs Trigger))

(* Resume the advancement the WAL has in flight at its logged phase,
   without appending that phase's record again, or begin the next one. An
   advancement serves the requests queued when it began: they are client
   intent, kept across crashes. *)
and resume_advancement t cs =
  (match cs.cs_served with [] -> take_requests cs | _ :: _ -> ());
  if cs.cs_down then notice_crash t cs
  else
    let rc = Coord_log.recover cs.cs_clog ~init_vu:initial_vu ~init_vr:initial_vr in
    let log, f =
      match rc.Coord_log.in_flight with
      | Some f -> (false, f)
      | None ->
          ( true,
            {
              Coord_log.f_adv = rc.Coord_log.completed + 1;
              f_phase = Coord_log.Switch_update;
              f_vu_old = cs.cs_vu;
              f_vr_old = cs.cs_vr;
            } )
    in
    cs.cs_flight <- f;
    if tracing t then
      if log then
        tr t cs.cs_name "version advancement begins (vu %d -> %d)" f.f_vu_old
          (f.f_vu_old + 1)
      else
        tr t cs.cs_name "resuming advancement %d from phase %d (WAL)" f.f_adv
          (Coord_log.phase_number f.f_phase);
    run_advancement t cs ~log f.f_phase

(* Enter [phase] of §4.3's four-phase advancement: append its WAL record
   ([log]), then send its first messages and open its wait. Phase 4's
   record is appended only once phase 3 found [vr_old] quiescent
   (PROTOCOL.md §9.2). *)
and run_advancement t cs ~log phase =
  cs.cs_flight <- { cs.cs_flight with Coord_log.f_phase = phase };
  let f = cs.cs_flight in
  let vu_new = f.f_vu_old + 1 and vr_new = f.f_vr_old + 1 in
  let enter () =
    if log then
      Coord_log.append cs.cs_clog
        (Coord_log.Phase
           {
             adv = f.f_adv;
             phase;
             vu_old = f.f_vu_old;
             vr_old = f.f_vr_old;
             time = Sim.now t.sim;
           })
  in
  enter ();
  match phase with
  | Coord_log.Switch_update ->
      broadcast t cs (Start_advancement { vu_new });
      await_acks t cs (Start_advancement { vu_new })
  | Coord_log.Quiesce_update ->
      cs.cs_wait.w_prev <- None;
      poll_counters t cs
  | Coord_log.Switch_read ->
      broadcast t cs (Advance_read { vr_new });
      await_acks t cs (Advance_read { vr_new })
  | Coord_log.Retire_read ->
      (* Quiescence on [vr_old] put the live tallies below [vr_new] back
         to zero. The advancement finishes only once every node
         acknowledged collecting: letting the next one overlap an
         in-flight GC notice would transiently yield a fourth version
         (§4.4, 2a). *)
      Vwindow.gc_below cs.cs_live vr_new;
      broadcast t cs (Do_gc { keep = vr_new });
      if t.cfg.await_gc_acks then await_acks t cs (Do_gc { keep = vr_new })
      else finish t cs

(* A phase's acknowledgements of [request]. *)
and await_acks t cs request =
  Array.fill cs.cs_acked 0 cs.cs_n false;
  open_wait t cs request cs.cs_acked

(* One asynchronous poll of every member's R row and C column for the
   polled version, collected into the round's buffer. *)
and poll_counters t cs =
  let w = cs.cs_wait in
  w.w_round <- w.w_round + 1;
  cstat t "proto.polls";
  let query =
    Counter_query { version = polled_version cs; round = w.w_round; epoch = cs.cs_epoch }
  in
  broadcast t cs query;
  let rd = cs.cs_poll_bufs.(w.w_round land 1) in
  Array.fill rd.Repl.Quorum.replied 0 cs.cs_n false;
  open_wait t cs query rd.Repl.Quorum.replied

(* Open the one wait behind every phase's acks and every counter poll: a
   reply from every required member, counted into [answered]. *)
and open_wait t cs request answered =
  let w = cs.cs_wait in
  let required = poll_required t cs in
  w.w_request <- request;
  w.w_required <- required;
  w.w_answered <- answered;
  w.w_needed <- 0;
  Array.iter (fun r -> if r then w.w_needed <- w.w_needed + 1) required;
  if t.cfg.phase_deadline < infinity then begin
    w.w_watched <- true;
    w.w_deadline <- Sim.now t.sim +. t.cfg.phase_deadline;
    w.w_interval <- t.cfg.phase_deadline
  end;
  if w.w_needed > 0 then take_replies t cs else wait_done t cs

(* The wait's receive: take packets in inbox order, running the channel's
   receive step on each, until a first delivery; park on an empty inbox. *)
and take_replies t cs =
  let w = cs.cs_wait in
  let inbox = Network.inbox t.net ~node:cs.cs_id in
  w.w_parked <- Mailbox.length inbox = 0;
  if w.w_parked then
    Mailbox.on_arrival inbox (fun () ->
        if w.w_parked then begin
          w.w_parked <- false;
          Sim.schedule t.sim ~delay:0. (fun () -> coordinator_loop t cs Inbox)
        end)
  else
    let p = Mailbox.take inbox in
    match (Reliable.accept t.ch ~node:cs.cs_id p, p) with
    | true, Reliable.Data { body; _ } -> reply t cs body
    | _, (Reliable.Data _ | Reliable.Ack _) -> take_replies t cs

(* One message the wait received, discarded if a crash hit since the last
   step. Replies count once per member: a duplicate (watchdog re-send,
   raw-mode duplicate) is recorded under [proto.dup_acks] and cannot
   complete a wait early. *)
and reply t cs msg =
  let w = cs.cs_wait in
  if cs.cs_down then notice_crash t cs
  else begin
    let i = reply_sender cs msg - cs.cs_lo in
    if i < 0 || i >= cs.cs_n then cstat t "proto.stale_msgs"
    else if w.w_answered.(i) then cstat t "proto.dup_acks"
    else begin
      w.w_answered.(i) <- true;
      (match msg with
      | Counter_reply { r_nz; c_nz; _ } ->
          (* Peer indices are shard-local (see {!cnt_ix}). *)
          let rd = cs.cs_poll_bufs.(w.w_round land 1) in
          rd.rows.(i) <- r_nz;
          rd.cols.(i) <- c_nz
      | _ -> ());
      if w.w_required.(i) then w.w_needed <- w.w_needed - 1
    end;
    if w.w_needed > 0 then take_replies t cs else wait_done t cs
  end

(* The open wait completed: a poll round goes to its decision, a phase's
   acks to the phase's next step. *)
and wait_done t cs =
  let w = cs.cs_wait and f = cs.cs_flight in
  w.w_watched <- false;
  match (w.w_request, f.f_phase) with
  | Counter_query _, _ -> await_quiescence t cs
  | _, Coord_log.Switch_update ->
      if tracing t then
        tr t cs.cs_name "phase 1 complete: all nodes on update version %d"
          (f.f_vu_old + 1);
      run_advancement t cs ~log:true Coord_log.Quiesce_update
  | _, Coord_log.Switch_read ->
      (* Cross-shard reads assigned from here on see this shard at
         [vr_new]. *)
      if tracing t then
        tr t cs.cs_name "phase 3 complete: read version is %d" (f.f_vr_old + 1);
      (match t.rvec with
      | Some rv -> Shard.Rvector.publish rv ~shard:cs.cs_shard ~vr:(f.f_vr_old + 1)
      | None -> ());
      w.w_prev <- None;
      poll_counters t cs
  | _, Coord_log.Retire_read -> finish t cs
  | _, Coord_log.Quiesce_update -> assert false (* phase 2 only polls *)

(* A poll round's decision (phases 2 and 3): quiescent once two
   consecutive polls are identical and show R = C pairwise (the paper's
   refs [8, 12, 9]), else poll again after [poll_interval]. Under
   replication the comparison is quorum-scoped (PROTOCOL.md §10.3), and
   the advancement defers while genuine subtransactions are stranded at a
   crashed replica: their roots have not committed, so retiring their
   version would let a read miss a writer that completes later. Phase 3
   also defers while the read-vector service has entries assigned
   [vr_old] that have not arrived, which open no counter pair R = C could
   see. *)
and await_quiescence t cs =
  let w = cs.cs_wait in
  let reading = cs.cs_flight.f_phase = Coord_log.Switch_read in
  let version = polled_version cs in
  let rd = cs.cs_poll_bufs.(w.w_round land 1) in
  let settled = Repl.Quorum.settled rd in
  let stable =
    match w.w_prev with Some prd -> Repl.Quorum.stable prd rd | None -> false
  in
  let full = Array.for_all Fun.id rd.replied in
  let quiet = settled && (stable || not t.cfg.two_wave_quiescence) in
  let defer_stranded = quiet && (not full) && Vwindow.get cs.cs_live version <> 0 in
  let defer_service =
    quiet
    &&
    match t.rvec with
    | Some rv when reading -> Shard.Rvector.pending rv ~shard:cs.cs_shard ~version <> 0
    | _ -> false
  in
  if defer_stranded then cstat t "repl.quorum_deferred";
  if defer_service then cstat t "shard.rvector_deferred";
  if quiet && (not defer_stranded) && not defer_service then begin
    let active = Vwindow.get cs.cs_live version in
    if active <> 0 then begin
      (* Full participation and still active work: a false quiescence
         claim. Fatal with checks on; the A1 ablation records it. *)
      if t.cfg.debug_checks then
        failwith
          (Printf.sprintf
             "3V unsoundness: coordinator declared version %d quiescent with \
              %d live subtransactions"
             version active)
      else cstat t "proto.unsound_quiescence"
    end;
    if reading then run_advancement t cs ~log:true Coord_log.Retire_read
    else begin
      if tracing t then
        tr t cs.cs_name "phase 2 complete: version %d consistent across nodes" version;
      run_advancement t cs ~log:true Coord_log.Switch_read
    end
  end
  else begin
    w.w_prev <- Some rd;
    Sim.after t.sim t.cfg.poll_interval (fun () -> coordinator_loop t cs Poll_due)
  end

(* Phase 4 acknowledged: commit the advancement to the WAL, answer the
   requests it served, and go on to the next. *)
and finish t cs =
  let f = cs.cs_flight in
  if tracing t then
    tr t cs.cs_name "phase 4 complete: version %d garbage-collected" f.f_vr_old;
  Coord_log.append cs.cs_clog (Coord_log.Committed { adv = f.f_adv; time = Sim.now t.sim });
  cs.cs_vu <- f.f_vu_old + 1;
  cs.cs_vr <- f.f_vr_old + 1;
  cs.cs_advancements <- cs.cs_advancements + 1;
  let served = cs.cs_served in
  cs.cs_served <- [];
  List.iter
    (Option.iter (fun c ->
         c.c_left <- c.c_left - 1;
         if c.c_left = 0 then Ivar.fill c.c_done ()))
    served;
  await_request t cs

(* Watchdog-time suspicion excusal (PROTOCOL.md §9.3): under replication
   with the failure detector on, a member that fell under suspicion after
   the wait began is excused, provided its group still has an unsuspected
   member. If no reply is owed any more, the wait is woken as a restart
   wakes it. *)
and excuse_suspected t cs =
  let w = cs.cs_wait in
  if repl_on t && t.fd <> None then begin
    let req_now = poll_required t cs in
    Array.iteri
      (fun i was ->
        if was && (not req_now.(i)) && not w.w_answered.(i) then begin
          w.w_required.(i) <- false;
          w.w_needed <- w.w_needed - 1;
          cstat t "proto.suspicion_excused"
        end)
      w.w_required;
    if w.w_needed <= 0 then wake t cs
  end

(* Wake a wait parked on the inbox, on the two events a self-addressed
   message takes to wake a receive: its arrival, none while the coordinator
   is down (the crash-window filter would drop it), and the receive's
   wake. A wait that is not parked by then needs no wake. *)
and wake t cs =
  if Sim.now t.sim >= cs.cs_down_until then
    Sim.schedule t.sim ~delay:0. (fun () ->
        if cs.cs_wait.w_parked then begin
          cs.cs_wait.w_parked <- false;
          Sim.schedule t.sim ~delay:0. (fun () -> coordinator_loop t cs Wake)
        end)

(* Notice a crash: the coordinator must not act while down, so it waits
   out the rest of the down window, then replays the WAL and re-enters the
   logged phase. *)
and notice_crash t cs =
  cs.cs_down <- false;
  let now = Sim.now t.sim in
  if now < cs.cs_down_until then
    Sim.after t.sim (cs.cs_down_until -. now) (fun () -> coordinator_loop t cs Up)
  else begin
    coord_recover t cs;
    resume_advancement t cs
  end

(* A shard's stall watchdog, present only when [phase_deadline] is finite:
   a tick every [phase_deadline / 4], armed from an event queued at
   creation (where a spawned process starts), so that the ticks keep their
   order among other events at the same instants. *)
let watchdog_loop t cs =
  let quarter = t.cfg.phase_deadline /. 4. in
  let rec tick () =
    coordinator_loop t cs Tick;
    Sim.after t.sim quarter tick
  in
  Sim.schedule t.sim ~delay:0. (fun () -> Sim.after t.sim quarter tick)

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
      (fun acc m -> List.fold_left max acc (Counters.versions t.nodes.(m).cnt))
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

(* A node's message dispatch: the library drain ({!Mailbox.serve}) over
   its inbox, on the events a server process blocked in a receive would
   take (test_simul's dispatch oracle holds the two shapes equal). Each
   packet goes through the channel's receive step, and every first
   delivery is dispatched. A handler's exception stops the run under
   "node-<name>". *)
let serve t node =
  let name = "node-" ^ node.name in
  Mailbox.serve t.sim (Network.inbox t.net ~node:node.id) ~name (fun p next ->
      match (Reliable.accept t.ch ~node:node.id p, p) with
      | true, Reliable.Data { body; _ } ->
          let now = Sim.now t.sim in
          (* Injected outage: a frozen node buffers its inbox. Everything
             already running locally proceeds; the message in hand waits
             out the pause on [Sim.after]'s two events, and no other is
             handled before it. *)
          if now < node.paused_until then
            Sim.after t.sim (node.paused_until -. now) (fun () ->
                try
                  handle_node_msg t node body;
                  next ()
                with exn -> Sim.fail t.sim name exn)
          else begin
            handle_node_msg t node body;
            next ()
          end
      | _, (Reliable.Data _ | Reliable.Ack _) -> next ())

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
     plus the suspicion state machine the heartbeat monitor feeds. Nothing
     here exists when [hb_period = 0]. *)
  let fd =
    if cfg.hb_period <= 0. then None
    else begin
      let hb =
        Heartbeat.create sim ~size:(cfg.nodes + 1) ~monitor:cfg.nodes
          ~latency:cfg.latency ()
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
  let census = Array.init cfg.shards (fun _ -> Counters.census ()) in
  let nodes =
    Array.init cfg.nodes (fun i ->
        {
          id = i;
          name = name_of i;
          shard = i / per_shard;
          vu = 1;
          vr = 0;
          store = Mvstore.create ();
          cnt = Counters.create ~census:census.(i / per_shard) ~nodes:per_shard;
          locks = Lockmgr.create sim ~deadlock_timeout:cfg.deadlock_timeout ();
          local_cc = Semaphore.create 1;
          pendings = Id_ring.create ~vacant:no_pending;
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
          cs_served = [];
          cs_census = census.(s);
          cs_epoch = 0;
          cs_flight =
            {
              Coord_log.f_adv = 0;
              f_phase = Coord_log.Switch_update;
              f_vu_old = initial_vu;
              f_vr_old = initial_vr;
            };
          cs_down = false;
          cs_down_until = 0.;
          cs_wait =
            {
              (* No wait is open: no reply matches epoch -1. *)
              w_request = Counter_query { version = -1; round = 0; epoch = -1 };
              w_required = [||];
              w_answered = [||];
              w_needed = 0;
              w_parked = false;
              w_round = 0;
              w_prev = None;
              w_watched = false;
              w_deadline = 0.;
              w_interval = 0.;
            };
          cs_acked = Array.make per_shard false;
          cs_vu = initial_vu;
          cs_vr = initial_vr;
          cs_poll_bufs = Array.init 2 (fun _ -> Repl.Quorum.round per_shard);
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
      rvec_entries = Array.make cfg.shards 0;
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
  (* Coordinator crash effects, as inputs of the coordinator's state
     machine: the crash hook marks it down (volatile progress is void, and
     the watchdog stops re-sending); the restart hook wakes a wait parked on
     the inbox, so that it notices the crash. The injector addresses one
     coordinator endpoint; plan-level coordinator crashes hit shard 0's
     (the "coordinator of one shard" failure-matrix row — the other shards
     keep advancing through the outage). *)
  let c0 = t.cs.(0) in
  Injector.set_coord faults ~id:c0.cs_id
    ~crash:(fun ~until_ -> coordinator_loop t c0 (Crash until_))
    ~restart:(fun () -> coordinator_loop t c0 Restart)
    ();
  Array.iter (serve t) nodes;
  (* Heartbeats: each node beats every [hb_period] from an event queued at
     creation, and the monitor drains its inbox by callbacks. A crashed
     node keeps beating into the heartbeat filter, which drops everything
     from inside a crash window — exactly a real process that stops being
     heard, without the engine telling the detector anything. Pauses
     intentionally do {e not} silence heartbeats: a frozen-but-alive node
     is the classic false-suspicion hazard only when its beats are lost,
     which fault plans express directly ({!Fault.Plan.heartbeat_loss}). *)
  (match fd with
  | None -> ()
  | Some fd ->
      Array.iter
        (fun node ->
          let rec beat () =
            Heartbeat.beat fd.hb ~node:node.id;
            Sim.after sim cfg.hb_period beat
          in
          Sim.schedule sim ~delay:0. beat)
        nodes;
      Heartbeat.serve fd.hb (fun src ->
          if src >= 0 && src < cfg.nodes then
            Detector.heartbeat fd.det ~node:src ~now:(Sim.now sim)));
  (* Coordinators, one per shard, idle until their first request. *)
  Array.iter (await_request t) t.cs;
  (* Stall watchdogs — only present when a finite deadline is configured,
     so the default configuration's event schedule is untouched. *)
  if cfg.phase_deadline < infinity then Array.iter (watchdog_loop t) t.cs;
  (* Advancement policy driver: one timer requests an advancement of every
     shard in shard order, keeping cross-shard advancement cadence aligned
     rather than staggered by S independent clocks; armed, like the
     watchdog, from an event queued at creation. *)
  (match cfg.policy with
  | Policy.Manual | Policy.Every_n_updates _ | Policy.Divergence _ -> ()
  | Policy.Periodic d ->
      let rec tick () =
        Array.iter (fun cs -> Mailbox.send cs.cs_trigger None) t.cs;
        Sim.after sim d tick
      in
      Sim.schedule sim ~delay:0. (fun () -> Sim.after sim d tick));
  t

let name _ = "3v"

(* Does some subtransaction of the tree run outside nodes [lo, hi)? *)
let rec subtree_outside ~lo ~hi (st : Spec.subtxn) =
  st.Spec.node < lo || st.Spec.node >= hi || children_outside ~lo ~hi st.Spec.children

and children_outside ~lo ~hi = function
  | [] -> false
  | st :: rest -> subtree_outside ~lo ~hi st || children_outside ~lo ~hi rest

(* Count into [entries] the shard entry points of [st]'s subtree: [st]
   itself when its shard is not [parent_shard], then its children's. *)
let rec count_entries t entries ~parent_shard (st : Spec.subtxn) =
  let s = st.Spec.node / t.per_shard in
  if s <> parent_shard then entries.(s) <- entries.(s) + 1;
  count_children t entries ~parent_shard:s st.Spec.children

and count_children t entries ~parent_shard = function
  | [] -> ()
  | st :: rest ->
      count_entries t entries ~parent_shard st;
      count_children t entries ~parent_shard rest

let submit t (spec : Spec.t) =
  (* Reject malformed specs up front: a bad node id inside a running
     subtransaction would otherwise stop a node's dispatch. The walk
     allocates nothing; only a rejection lists the nodes, to name the
     smallest bad one. *)
  if subtree_outside ~lo:0 ~hi:t.cfg.nodes spec.Spec.root then begin
    let n = List.find (fun n -> n < 0 || n >= t.cfg.nodes) (Spec.nodes spec) in
    invalid_arg
      (Printf.sprintf "Engine.submit: %s targets node %d outside 0..%d"
         spec.Spec.label n (t.cfg.nodes - 1))
  end;
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
        let lo = spec.Spec.root.Spec.node / t.per_shard * t.per_shard in
        if not (subtree_outside ~lo ~hi:(lo + t.per_shard) spec.Spec.root) then None
        else begin
          (match spec.Spec.kind with
          | Spec.Read_only -> ()
          | Spec.Commuting | Spec.Non_commuting ->
              let span =
                List.sort_uniq Int.compare
                  (List.map (fun n -> n / t.per_shard) (Spec.nodes spec))
              in
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
          let entries = t.rvec_entries in
          count_entries t entries ~parent_shard:(-1) spec.Spec.root;
          cstat t "shard.vectored_reads";
          let vec = Shard.Rvector.assign rv ~entries in
          Array.fill entries 0 (Array.length entries) 0;
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
  let c = { c_left = t.cfg.shards; c_done = Ivar.create () } in
  Array.iter (fun cs -> Mailbox.send cs.cs_trigger (Some c)) t.cs;
  c.c_done

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

let advancements_completed t =
  Array.fold_left (fun acc cs -> acc + cs.cs_advancements) 0 t.cs
let messages_sent t = Network.messages_sent t.net
let delivered_seen_size t = Network.delivered_seen_size t.net

let max_versions_ever t =
  Array.fold_left (fun acc n -> max acc (Mvstore.max_versions_ever n.store)) 1
    t.nodes
