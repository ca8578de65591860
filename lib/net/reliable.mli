(** At-least-once + idempotent delivery on top of {!Network} — the classic
    reliable-channel construction: per-link sequence numbers, receiver-side
    dedup, acknowledgements, and timeout-driven retransmission with
    exponential backoff.

    A channel wraps a network whose message type is ['m packet]. With
    [config.acks = false] (the default) it degenerates to raw sends: one
    packet per send, no acks, no sequence allocation, no timers — byte-
    identical scheduling to using the network directly, which is what keeps
    existing deterministic tests and model-checking scenarios unperturbed.
    With [acks = true]:

    - every send allocates the next sequence number of its (src, dst) link
      and is acknowledged by the receiver on arrival;
    - the receiver drops packets whose (src, seq) it has already delivered
      (the durable-inbox idempotency pattern), so retransmissions and
      network-duplicated copies are invisible to the application; it keeps
      a contiguous delivered floor per stream and the sequences above it,
      as the sender does for acks;
    - with [retransmit = true] an unacknowledged packet is re-sent after
      [timeout], then [timeout * backoff], ... capped at [max_backoff].

    State is per directed stream [src → dst], found by two array indexes
    (a source's row is allocated on its first send, a stream on its link's
    first send, so raw mode allocates none). A stream is one window shared
    by both ends. The receiver acks only packets it has recorded, so
    [ack_floor ≤ recv_floor ≤ next_seq] always holds, and one
    power-of-two ring over [(ack_floor, next_seq]] holds each unacked
    packet and, for the receiver, which sequences arrived past a gap in its
    floor. The ring doubles when full. A retransmission resends the stored
    packet.

    Retry deadlines need no timer per packet. The channel keeps one
    deadline queue per retry delay ([timeout], then each delay times
    [backoff] up to [max_backoff]); a delay is constant, so its deadlines
    come due in the order they were armed. A send appends its packet's
    deadline to the first queue, and a queue with deadlines keeps one
    kernel event, at its oldest. That event resends the packet if it is
    still unacked (one array read tells) and appends the retry to the next
    queue, then passes over the packets acked since, which cost no event,
    to the oldest deadline left. Each deadline runs under the kernel
    sequence number drawn when it was armed ({!Simul.Sim.reserve}), so
    retransmissions leave at the instants, and in the order among
    same-instant events, that a timer per packet would give them.

    Retransmissions go through the network's fault filter like any other
    send, so a retransmitted copy can itself be dropped — delivery is
    guaranteed only if the link eventually passes a copy, which is exactly
    the at-least-once contract. *)

(** Wire format. [Ack {src; seq}] acknowledges the data packet [seq] sent
    {e to} [src] by the ack's receiver. *)
type 'm packet = Data of { src : int; seq : int; body : 'm } | Ack of { src : int; seq : int }

type config = {
  acks : bool;  (** enable sequence numbers, acks and dedup *)
  retransmit : bool;  (** re-send unacknowledged packets (requires [acks]) *)
  timeout : float;  (** first retransmission delay, virtual seconds *)
  backoff : float;  (** multiplier applied per retry (≥ 1) *)
  max_backoff : float;  (** retry-delay cap, virtual seconds *)
}

(** [{acks = false; retransmit = true; timeout = 0.05; backoff = 2.0;
    max_backoff = 1.0}] — raw sends until a caller opts in. *)
val default_config : config

type 'm t

(** [create ?config net] wraps [net]. The channel shares the network's
    simulation for its retry deadlines. With [acks] on it installs the
    network's delivery key ({!Network.set_delivery_key}), packing a data
    packet's [(src, seq)] as [seq * size + src].
    @raise Invalid_argument with [acks] on, if [timeout <= 0],
    [backoff < 1] or [max_backoff <= 0]. *)
val create : ?config:config -> 'm packet Network.t -> 'm t

(** [send t ~src ~dst body] — never blocks. *)
val send : 'm t -> src:int -> dst:int -> 'm -> unit

(** [accept t ~node p] is the receive step for packet [p], taken from
    [node]'s inbox ({!Network.inbox}): the receiver runs it on every
    packet it takes, and handles the body only when it returns true. With
    [acks] on, a data packet is acknowledged (every copy) and recorded in
    its stream's delivered floor, and an ack is applied to the stream it
    acknowledges. True iff [p] is a data packet delivered for the first
    time, whose body the application must now handle; always true for a
    data packet with [acks] off. *)
val accept : 'm t -> node:int -> 'm packet -> bool

(** Retransmitted data packets so far. *)
val retransmissions : 'm t -> int

(** Duplicate data packets suppressed by receiver-side dedup. *)
val dup_dropped : 'm t -> int

(** Acknowledgement packets sent. *)
val acks_sent : 'm t -> int

(** Receiver-side dedup records held one by one: sequences delivered past
    a gap in their [(src, dst)] stream. Each stream also keeps one
    contiguous delivered floor, and a sequence counts as already delivered
    if it is at or below its floor or held here, so this stays within the
    reordering and loss window, not the run (0 when [acks] is off). *)
val dedup_size : 'm t -> int

(** Unacknowledged data packets addressed to [dst] — the catch-up backlog a
    crashed node is still owed. A recovering replica is fully caught up
    once this drains to 0 (every retransmitted message it slept through has
    landed and been acknowledged). O(1): a per-destination count kept by
    [send] and the first ack of each packet. *)
val unacked_to : 'm t -> dst:int -> int

(** [ack_floor t ~src ~dst] is the highest sequence on the [src → dst]
    stream with every sequence at or below it acknowledged (0 initially).
    It never passes the receiver's delivered floor on the same stream.
    As the floor advances, the channel prunes the network's per-(src, seq,
    dst) delivery-dedup records behind it ({!Network.forget_delivered}),
    which is what keeps that table bounded by the in-flight window on long
    retransmit-heavy runs. *)
val ack_floor : 'm t -> src:int -> dst:int -> int
