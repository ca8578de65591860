(** The 3V protocol engine (paper §4) with the NC3V extension (§5).

    One engine instance models the whole distributed system: [config.nodes]
    database nodes plus one coordinator endpoint, all communicating through
    an asynchronous {!Netsim.Network}. Each node keeps

    - its current update version [vu] and read version [vr],
    - a multi-version store ({!Store.Mvstore}),
    - request/completion counter tables ({!Counters}),
    - a lock manager (only exercised when [nc_mode] is on).

    {b Update transactions} (well-behaved, §4.1): the root subtransaction is
    assigned the node's current [vu] on arrival and bumps [R(vu)pp]; writes
    create missing versions by copy-on-update and update {e all} versions
    ≥ the transaction's version (the dual write of §2.3); children carry the
    version, late nodes treat an arriving higher-versioned subtransaction as
    the advancement notification. A subtransaction terminates — bumping its
    completion counter and notifying its parent — once its local work is
    done and all its children have terminated, exactly as in the paper's
    Table 1. Nothing in this path ever waits for a remote event.

    {b Read-only transactions} (§4.2): same machinery with version [vr];
    they take no locks and are never delayed or aborted.

    {b Version advancement} (§4.3) runs as a coordinator process: phase 1
    broadcasts the new update version and collects acks; phase 2 polls the
    counters asynchronously until two consecutive polls agree and show
    [R(v)pq = C(v)pq] everywhere; phase 3 advances the read version; phase 4
    waits for old readers the same way and triggers garbage collection.

    {b Coordinator crash tolerance}: every phase entry is recorded in a
    durable write-ahead log ({!Coord_log}) before its first message goes
    out, and every phase is idempotent on the node side, so a coordinator
    fail-stop crash (inject with {!inject_coord_crash} or a
    {!Fault.Plan.coord_crash} entry) loses only volatile progress: on
    restart the coordinator replays the log and re-drives the in-flight
    advancement from its last logged phase. Counter polls are namespaced by
    a restart epoch so pre-crash replies can never satisfy a post-restart
    poll. A finite [phase_deadline] additionally arms a stall watchdog that
    re-broadcasts a phase's message (to the nodes still owing a reply) with
    bounded exponential backoff, turning silent wedges into observable,
    self-healing retries ([proto.phase_stalled]).

    {b Non-commuting updates} (§5, enable with [nc_mode]): well-behaved
    transactions take commute locks released by an asynchronous clean-up;
    non-commuting transactions take non-commute locks, wait at the root for
    [vu = vr + 1], abort when overtaken by a higher version, and commit via
    two-phase commit.

    {b Compensation} (§3.2): with [abort_probability] > 0, that fraction of
    commuting update transactions "abort" after spawning their children by
    issuing compensating subtransactions through the ordinary counters,
    which exercises termination detection under in-flight compensation. *)

type config = {
  nodes : int;  (** number of database nodes (≥ 1) *)
  shards : int;
      (** number of keyspace shards [S] (1 ≤ S ≤ nodes, [S] dividing
          [nodes] evenly, and [nodes / S] a multiple of [replicas] so a
          replica group never straddles a shard). Nodes are partitioned
          into [S] contiguous blocks, each governed by {e its own}
          coordinator endpoint with a private write-ahead log, (vu, vr)
          frontier, counter-poll state and watchdog — so version
          advancement, the protocol's only global synchronization point,
          becomes [S] independent per-shard rounds over [nodes / S]
          members each. Update transactions must stay within one shard
          ({!submit} rejects cross-shard update trees); read-only
          transactions may span shards and are assigned a consistent
          {e read vector} of per-shard read versions at submission (see
          {!read_vector}). The default [1] reproduces the historical
          single-coordinator engine byte-for-byte. *)
  replicas : int;
      (** replication factor [k] (1 ≤ k ≤ nodes): nodes are partitioned
          into groups of [k] consecutive replicas ({!Repl.Placement});
          commuting writes are mirrored to every group member through the
          counter matrices, reads fail over along the group's deterministic
          failover order (skipping replicas whose readable-after-recovery
          gate is closed), and coordinator waits complete on a quorum of
          ≥ 1 live replica per group — so advancement tolerates up to
          [k - 1] crashed replicas of any group. Replication covers the
          commuting core of the protocol only: [nc_mode] must stay off (an
          overwrite needs inter-replica ordering, which commuting
          replication does not provide, so a failed-over read could miss a
          primary-pinned overwrite — {!create} rejects the combination). The
          default [1] makes every group a singleton and disables every
          replication code path, keeping historical schedules
          byte-identical. Crash tolerance additionally requires
          [reliable_channel] (mirrors owed to a down replica must
          retransmit until its restart). *)
  hb_period : float;
      (** heartbeat send cadence for the failure-detector subsystem. [0.]
          (the default) disables it entirely — no heartbeat network, no
          daemons, no messages, byte-identical historical schedules — and
          liveness decisions fall back to the fault injector's
          {e instantaneous} ground truth (a legacy/testing convenience: no
          deployable system has that oracle). When positive, every node
          sends a beacon to the coordinator this often over a dedicated
          side network ({!Netsim.Heartbeat}) and {e all} protocol liveness
          — read-failover routing, quorum poll participation, watchdog-time
          excusal — is derived from per-node {e suspicion} computed from
          heartbeat arrival deadlines ({!Fd.Detector}). Suspicion can be
          wrong in both directions and the protocol stays safe either way:
          a falsely-suspected live node's late replies fold in
          idempotently, and an unsuspected-but-dead node degrades to the
          watchdog/retransmit path (PROTOCOL.md §11). *)
  hb_timeout : float;
      (** minimum heartbeat silence before the detector first suspects a
          node; must exceed [hb_period] when the detector is on. Confirmation
          and back-off beyond the first suspicion follow
          {!Fd.Detector.default_config}. *)
  latency : Netsim.Latency.t;  (** inter-node message latency model *)
  think_time : float;  (** local processing time per subtransaction *)
  poll_interval : float;  (** spacing of the coordinator's counter polls *)
  phase_deadline : float;
      (** stall watchdog: after this long without progress in an advancement
          phase the coordinator records [proto.phase_stalled] and re-sends
          the phase message to the nodes that have not replied, with doubled
          (bounded) backoff. [infinity] (the default) disables the watchdog
          — its daemon is not spawned, leaving fault-free schedules
          untouched. Must be positive. *)
  policy : Policy.t;  (** when to trigger version advancement *)
  nc_mode : bool;
      (** take commute locks on well-behaved transactions so that
          non-commuting transactions can be admitted (§5) *)
  deadlock_timeout : float;  (** lock-wait bound for NC transactions *)
  abort_probability : float;
      (** fraction of commuting updates that compensate (§3.2) *)
  debug_checks : bool;
      (** assert the quiescence oracle when the coordinator declares a
          version consistent — catches unsound termination detection *)
  two_wave_quiescence : bool;
      (** ablation A1: [true] (sound) requires two consecutive identical
          matching polls; [false] declares on the first matching poll *)
  await_gc_acks : bool;
      (** ablation A2: [true] (sound) ends an advancement only after all
          nodes acknowledged garbage collection, which is what bounds items
          to three versions; [false] may transiently create a fourth *)
  dual_writes : bool;
      (** ablation A3: [true] (sound) makes straggler writes update every
          version ≥ theirs (§4.1 step 4); [false] silently loses those
          writes from the newer version *)
  reliable_channel : bool;
      (** route every message through {!Netsim.Reliable}: per-link sequence
          numbers, acks and receive-side dedup, making delivery
          at-least-once + idempotent. Required whenever the installed fault
          plan can drop or duplicate messages; default [false] so fault-free
          runs keep their exact historical schedules. *)
  retransmit : bool;
      (** ablation A4: [true] (sound) re-sends unacknowledged messages with
          exponential backoff; [false] under loss provably stalls
          advancement (a lost phase broadcast or ack is never repaired).
          Only meaningful with [reliable_channel]. *)
  retransmit_timeout : float;
      (** first retransmission delay (virtual s); each retry doubles it, up
          to 1 s *)
  expected_inbox_depth : int;
      (** pre-size for each node's network inbox ring (messages); derive
          from the configured arrival rate for steady-state benches. Purely
          a capacity hint — never affects schedules. *)
}

(** A sensible default: constant 5 ms links, 0.1 ms think time, 10 ms poll
    interval, manual policy, NC mode off, no compensation, checks on. *)
val default_config : nodes:int -> config

type t

(** [create sim config ?trace ?node_names ?link_latency ?faults ()] builds
    the system and starts its node server processes and coordinator (as
    daemon processes of [sim]). [node_names] labels nodes in traces
    (default "n0", "n1", ...). [faults] plugs a {!Fault.Injector} into the
    engine's network and node-event hooks; when omitted an internal
    injector with the empty plan is used (behaviorally a no-op), so
    {!inject_pause} and {!inject_crash} always work. *)
val create :
  Simul.Sim.t ->
  config ->
  ?trace:Trace.t ->
  ?node_names:string array ->
  ?link_latency:(src:int -> dst:int -> Netsim.Latency.t option) ->
  ?faults:Fault.Injector.t ->
  unit ->
  t

(** Engine-interface instance (name, submit, stats). *)
include Txn.Engine_intf.S with type t := t

(** [packed t] wraps the engine for heterogeneous experiment tables. *)
val packed : t -> Txn.Engine_intf.packed

(** [advance t] triggers one full version advancement (all four phases,
    including garbage collection); the IVar fills when it finishes. Safe to
    call regardless of policy; concurrent triggers queue. *)
val advance : t -> unit Simul.Ivar.t

(** Current update version at a node. *)
val update_version : t -> node:int -> int

(** Current read version at a node. *)
val read_version : t -> node:int -> int

(** A node's store, for inspection by tests and experiments. *)
val store : t -> node:int -> Txn.Value.t Store.Mvstore.t

(** A node's counter table. *)
val counters : t -> node:int -> Counters.t

(** Quiescence oracle: number of subtransactions of [version] that have been
    requested but have not yet terminated, across the whole system. *)
val live_subtxns : t -> version:int -> int

(** Number of fully completed version advancements. *)
val advancements_completed : t -> int

(** [inject_pause t ~node ~at ~duration] freezes message processing at
    [node] from virtual time [at] for [duration] seconds (fault injection:
    an overloaded or GC-stalled peer). Subtransactions already executing
    locally finish; everything else queues. Used to demonstrate the §8
    claim that no user transaction on a node is delayed by activity —
    or inactivity — on other nodes. A thin wrapper over
    {!Fault.Injector.pause} on the engine's injector. *)
val inject_pause : t -> node:int -> at:float -> duration:float -> unit

(** [inject_crash t ~node ~at ~restart] fail-stops [node] during
    [[at, restart)): all its traffic is dropped, and at [restart] it
    recovers its volatile version registers from durable state (store GC
    floor + counters) and catches up via the late-node rule. Use with
    [reliable_channel] on, or in-flight protocol messages are lost for
    good. Thin wrapper over {!Fault.Injector.crash}. *)
val inject_crash : t -> node:int -> at:float -> restart:float -> unit

(** [inject_coord_crash t ~at ~restart] fail-stops the {e coordinator}
    during [[at, restart)): its traffic is dropped and its volatile phase
    progress (ack tallies, poll round, armed watchdog) is lost. At
    [restart] it replays its write-ahead log, bumps its poll epoch, and
    re-drives the in-flight advancement from the last logged phase; nodes
    treat the re-driven messages idempotently. Thin wrapper over
    {!Fault.Injector.coord_crash}.
    @raise Invalid_argument if [restart <= at]. *)
val inject_coord_crash : t -> at:float -> restart:float -> unit

(** The coordinator's write-ahead log, for inspection by tests and
    experiments (e.g. to read phase-boundary times of a reference run).
    With [shards > 1] this is {e shard 0's} log — the injectable
    coordinator ({!inject_coord_crash} targets shard 0, the
    "coordinator-of-one-shard" failure case). *)
val coord_log : t -> Coord_log.t

(** Configured shard count [S]. *)
val shard_count : t -> int

(** [shard_of_node t ~node] is the shard owning [node] (nodes are split
    into [S] contiguous equal blocks). *)
val shard_of_node : t -> node:int -> int

(** Snapshot of the published per-shard read-version vector — component
    [s] is the newest read version shard [s]'s coordinator has made
    assignable to cross-shard reads (published at phase-3 completion,
    i.e. after every shard member acknowledged the switch). Singleton
    [[| vr |]] at [shards = 1]. Components are monotone and snapshots
    atomic, so any two vectors ever assigned are componentwise
    comparable — the no-torn-read-vector guarantee. *)
val read_vector : t -> int array

(** [assigned_vector t ~txn] is the read vector assigned to transaction
    [txn] at submission, if it was a cross-shard read ([None] for
    single-shard transactions and always at [shards = 1]). Retained for
    post-hoc certification: checkers fence each key by its shard's
    component rather than the root's version. *)
val assigned_vector : t -> txn:int -> int array option

(** The engine's fault injector (the one passed to {!create}, or the
    internal empty-plan injector), for accounting and ad-hoc fault
    scheduling. *)
val injector : t -> Fault.Injector.t

(** The engine's replica placement (group membership and failover order),
    derived from [config.replicas]. With [replicas = 1] every node is a
    singleton group. *)
val placement : t -> Repl.Placement.t

(** The failure detector's suspicion state machine, when the heartbeat
    subsystem is on ([config.hb_period > 0]); [None] otherwise. For
    inspection by tests and experiments (suspicion/recovery accounting also
    surfaces in {!stats} under ["fd.*"]). *)
val detector : t -> Fd.Detector.t option

(** [node_suspected t ~node] — is [node] currently under heartbeat
    suspicion? Always [false] when the detector is off. This is exactly the
    liveness signal routing and quorum polls consume (negated). *)
val node_suspected : t -> node:int -> bool

(** [node_readable t ~node] — the readable-after-recovery gate: [true] iff
    [node] may serve reads right now. A node that never crashed is always
    readable; a recovered replica becomes readable once its catch-up
    backlog has drained (no retransmissions still owed to it) {e and} its
    read version has reached the frontier recorded at restart, i.e. a full
    quiescence round has certified the suspect version with the replica
    participating. *)
val node_readable : t -> node:int -> bool

(** Total messages sent on the underlying network so far. *)
val messages_sent : t -> int

(** Remote (inter-node) messages only. *)
val remote_messages_sent : t -> int

(** Number of (src, dst, seq) records currently held by the protocol
    network's duplicate-delivery filter. Only the reliable channel feeds
    the filter; ack-floor pruning must keep it bounded by the in-flight
    window rather than by run length. Exposed so CI can assert that. *)
val delivered_seen_size : t -> int

(** Largest number of simultaneous versions of any item on any node so far
    (the paper bounds this by 3). *)
val max_versions_ever : t -> int

(** Distinct version numbers currently live anywhere in the system (with
    allocated counters), ascending. The paper notes that "a real
    implementation could re-use old version numbers, employing only three
    distinct numbers": this window never exceeds three entries, so a mod-3
    encoding of version ids would be sound. Checked on every advancement
    step when [debug_checks] is on. Under replication the invariant is
    enforced over {e live} replicas only: a crashed replica's durable
    counters freeze, so quorum advancements running ahead of an outage
    transiently keep the dead replica's stale versions in this engine-wide
    window until its restart adopts the group's GC floor. *)
val version_window : t -> int list
