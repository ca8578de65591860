(** Deterministic heartbeat failure detector.

    Pure suspicion state machine: the owner feeds it heartbeat arrivals
    ([heartbeat]) and queries per-node suspicion ([suspected]) — both against
    a caller-supplied clock, so the detector never reads wall time or draws
    randomness. Suspicion is a deadline test with a phi-accrual-style
    adaptive horizon: each node's deadline sits a multiple of its observed
    heartbeat cadence (EWMA) past its last arrival, and every miss stretches
    the horizon with bounded back-off. States follow
    trusted → suspected → confirmed-down → recovered (PROTOCOL.md §11);
    suspicion can be {e wrong} in both directions, and the 3V engine is
    required to stay safe either way. *)

(** Per-node detector state. [Recovered] is the one-beat transitional state
    between a suspicion being refuted (a heartbeat arrived) and full trust
    being restored by the next on-time heartbeat. *)
type state = Trusted | Suspected | Confirmed_down | Recovered

type config = {
  period : float;  (** expected heartbeat send interval *)
  timeout : float;
      (** minimum silence before the first suspicion; must exceed [period] *)
  phi_factor : float;
      (** horizon multiple of the observed mean inter-arrival gap *)
  confirm_misses : int;
      (** consecutive expired deadlines that escalate [Suspected] to
          [Confirmed_down] *)
  backoff : float;  (** per-miss horizon multiplier (>= 1) *)
  max_horizon : float;  (** horizon bound; also caps gaps folded into the EWMA *)
}

(** Conservative defaults for a 50 ms heartbeat period. *)
val default_config : config

type t

(** [create ~nodes ~now ()] builds a detector trusting all [nodes] peers,
    with every deadline seeded from [now]. Raises [Invalid_argument] on a
    malformed configuration. *)
val create : ?config:config -> nodes:int -> now:float -> unit -> t

(** [heartbeat t ~node ~now] records a heartbeat arrival from [node] at
    [now]: refutes any standing suspicion, folds the inter-arrival gap into
    the adaptive horizon, and re-arms the deadline. *)
val heartbeat : t -> node:int -> now:float -> unit

(** [state t ~node ~now] rolls [node]'s deadline clock forward to [now] and
    returns its current state. *)
val state : t -> node:int -> now:float -> state

(** [suspected t ~node ~now] — [true] iff the state at [now] is [Suspected]
    or [Confirmed_down]. This is the liveness predicate protocol decisions
    consume. *)
val suspected : t -> node:int -> now:float -> bool

(** Trusted/recovered → suspected transitions so far. *)
val suspicions : t -> int

(** Suspected → confirmed-down escalations so far. *)
val confirmations : t -> int

(** Suspicion refutations (a suspected or confirmed-down peer heartbeat
    again) so far. *)
val recoveries : t -> int

(** Heartbeat arrivals folded in so far. *)
val heartbeats_seen : t -> int
