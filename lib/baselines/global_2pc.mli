(** Baseline 1 of paper §1: full global synchronization.

    Every global transaction — reads included — runs distributed strict
    two-phase locking with a two-phase commit: each subtransaction acquires
    shared/exclusive locks at its node, buffers its writes, spawns its
    children, and votes; the root collects votes, decides, and broadcasts
    the decision, upon which nodes apply writes and release locks.

    This guarantees global serializability but couples every node's latency
    to every other node's: a read blocks behind a remote writer's lock until
    that writer's 2PC completes. Deadlocks (local cycles or distributed
    timeouts) abort the transaction; the engine does not retry. *)

type config = {
  nodes : int;
  latency : Netsim.Latency.t;
  think_time : float;
  deadlock_timeout : float;
}

(** Stock configuration: 5 ms constant latency, 0.1 ms think time, 1 s
    deadlock timeout. *)
val default_config : nodes:int -> config

type t

(** [create ?faults sim cfg] builds the system. [faults] plugs a
    {!Fault.Injector} into the network and the pause hook; crash/restart
    hooks are deliberately left unset — Global-2PC has no recovery path,
    which is the asymmetry experiment E12 measures. *)
val create : ?faults:Fault.Injector.t -> Simul.Sim.t -> config -> t

include Txn.Engine_intf.S with type t := t

(** The engine packed behind {!Txn.Engine_intf.S}. *)
val packed : t -> Txn.Engine_intf.packed

(** The single-version store of a node (version 0 only), for inspection. *)
val store : t -> node:int -> Txn.Value.t Store.Mvstore.t

(** [inject_pause t ~node ~at ~duration] freezes message processing at
    [node] for [duration] seconds starting at virtual time [at] — the same
    fault injection as [Threev.Engine.inject_pause], for comparison. *)
val inject_pause : t -> node:int -> at:float -> duration:float -> unit

(** Comparison shim for the 3V engine's coordinator crash: this baseline
    has no separate coordinator endpoint (each root node runs its own 2PC),
    so the closest fault is fail-stopping node 0, the conventional
    coordination site — with no write-ahead log and no recovery protocol,
    transactions rooted there during the window are simply lost.
    @raise Invalid_argument if [restart <= at]. *)
val inject_coord_crash : t -> at:float -> restart:float -> unit
