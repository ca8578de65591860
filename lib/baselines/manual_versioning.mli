(** Baselines 2 and 3 of paper §1, as one executor: no coordination and
    manual (calendar) versioning.

    Subtransactions execute immediately and independently at each node;
    there is no blocking, no commit protocol and no version-advancement
    protocol. The two baselines differ only in which version a transaction
    reads and writes, chosen at the root from the submission time:

    - [Unversioned] (baseline 2, "no-coordination"): every transaction
      reads and writes version 0 in place. Performance is the upper bound,
      but a read that overlaps a multi-node update can observe some of its
      writes and miss others (the "partial charges on the bill" anomaly of
      §1), which the atomic-visibility checker counts.
    - [Periodic] (baseline 3, "manual-versioning"): updates accumulate in a
      per-period batch version: a transaction submitted during period [π]
      writes version [π + 1]. Reads use the latest {e closed} period that
      has also aged past the safety delay: period [σ] becomes readable at
      time [(σ+1) · period + safety_delay]. The safety delay stands in for
      the "conservatively high" administrative waiting the paper
      describes; if it is set too low, update subtransactions still in
      flight past the switchover produce the same partial reads
      (experiment E8). The trade-off is staleness of at least
      [safety_delay] and up to [period + safety_delay]. *)

(** Which version each transaction uses. *)
type schedule =
  | Unversioned  (** everything on version 0 *)
  | Periodic of {
      period : float;  (** batch length in virtual seconds (the "month") *)
      safety_delay : float;  (** wait after period close before reads switch *)
    }

type config = {
  nodes : int;
  latency : Netsim.Latency.t;
  think_time : float;
  schedule : schedule;
}

(** Stock configuration: 5 ms constant latency, 0.1 ms think time, a
    periodic schedule of 1 s periods and a 200 ms safety delay. *)
val default_config : nodes:int -> config

type t

(** [create sim cfg] builds the system and starts its node servers.
    @raise Invalid_argument if [nodes] or a periodic [period] is not
    positive. *)
val create : Simul.Sim.t -> config -> t

include Txn.Engine_intf.S with type t := t

(** The engine packed behind {!Txn.Engine_intf.S}. *)
val packed : t -> Txn.Engine_intf.packed

(** The version a read submitted at virtual time [now] uses (always 0 when
    unversioned). *)
val read_version_at : t -> now:float -> int

(** The multi-version store of a node (one version per period, only
    version 0 when unversioned), for inspection. *)
val store : t -> node:int -> Txn.Value.t Store.Mvstore.t

(** Comparison shim for the 3V engine's coordinator crash: the periodic
    version publisher is this scheme's coordinator analogue. During
    [[at, restart)) the publication clock is frozen at [at], so reads keep
    the last pre-crash version and staleness grows linearly for the whole
    outage; at [restart] publication catches up instantly (it is a pure
    function of time — the "recovery protocol" is the wall clock).
    Unversioned reads stay on version 0 regardless.
    @raise Invalid_argument if [restart <= at]. *)
val inject_coord_crash : t -> at:float -> restart:float -> unit
