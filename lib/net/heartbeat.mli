(** Heartbeat transport: a dedicated side network carrying liveness beacons
    from every node to one monitor endpoint.

    Kept separate from the protocol network so (a) heartbeats never contend
    with — or wake — the coordinator's protocol inbox, and (b) fault plans
    can target the heartbeat class independently (a heartbeat-only loss storm
    provokes false suspicion without touching protocol traffic). The payload
    is just the sender id: the failure detector ({!Fd.Detector}) consumes
    arrival {e times}, not contents. *)

type t

(** [create sim ~size ~monitor ~latency ()] builds the side network with
    [size] endpoints, delivering beats to [monitor]. The owner runs the
    send timers. *)
val create : Simul.Sim.t -> size:int -> monitor:int -> latency:Latency.t -> unit -> t

(** The underlying network — exposed so a fault injector can install its
    heartbeat-class filter on it. *)
val network : t -> int Network.t

(** [beat t ~node] sends one heartbeat from [node] to the monitor. *)
val beat : t -> node:int -> unit

(** [serve t f] drains the monitor endpoint's inbox by callbacks
    ({!Simul.Mailbox.serve}): [f src] runs for each heartbeat, with its
    sender id (a beat reaching an idle inbox queues the drain at the
    current instant; beats arriving before it runs join it). Call it once.
    An exception from [f] stops the run as
    [Sim.Process_failure ("hb-monitor", exn)]. *)
val serve : t -> (int -> unit) -> unit

(** Heartbeats sent so far (including ones the fault filter later drops). *)
val sent : t -> int

(** Heartbeats delivered to — and consumed by — the monitor so far. *)
val received : t -> int

(** Heartbeats whose every copy was suppressed by the installed filter. *)
val dropped : t -> int
