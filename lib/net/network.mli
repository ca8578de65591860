(** Asynchronous point-to-point messaging between simulated nodes.

    Each node owns one inbox. [send] never blocks the sender: delivery is
    scheduled after a sampled latency, so all inter-node communication in the
    engines is asynchronous by construction — matching the paper's model where
    "messages are sent asynchronously with respect to the execution of user
    transactions". Node ids are dense integers [0 .. size-1].

    Each delivered copy is one kernel event at its delivery instant, in
    send order among copies due at the same instant, so per-link delivery
    is FIFO whenever delays are. The event's closure is the copy's only
    allocation. *)

type 'm t

(** A pluggable per-delivery hook (see {!set_filter}): given the sampled
    base [delay] of a send, returns the delays at which copies of the
    message are actually delivered. [[]] drops the message; two or more
    entries duplicate it. The fault injector ({!Fault.Injector}) is the
    intended implementation. *)
type filter = src:int -> dst:int -> delay:float -> float list

(** [create sim ~size ~latency ()] builds a network of [size] nodes.
    [link_latency] optionally overrides the model per directed link.
    [inbox_capacity] (default 16) pre-sizes each inbox's ring buffer —
    pass the expected steady-state queue depth (e.g. derived from the
    configured arrival rate) so server inboxes never pay growth copies. *)
val create :
  Simul.Sim.t ->
  size:int ->
  latency:Latency.t ->
  ?link_latency:(src:int -> dst:int -> Latency.t option) ->
  ?inbox_capacity:int ->
  unit ->
  'm t

(** Number of nodes. *)
val size : 'm t -> int

(** The simulation the network schedules deliveries on. *)
val sim : 'm t -> Simul.Sim.t

(** [set_filter t f] installs [f] as the per-delivery filter. Every
    subsequent send — including self-sends — is routed through it. *)
val set_filter : 'm t -> filter -> unit

(** [set_delivery_key t keyer] teaches delivery accounting to recognise
    logical re-sends: a delivered message for which [keyer] returns a key
    [k >= 0] bumps {!messages_delivered} only the first time that [k] lands
    at a given destination; a negative key counts once per copy. The keyer
    packs whatever names a logical message into one int (the reliable
    channel packs its [(src, seq)]); the network pairs it with the
    destination as [k * size + dst], so keys must stay below
    [max_int / size]. A reliable channel installs this so a retransmission
    arriving after the original is not counted as a second delivery. *)
val set_delivery_key : 'm t -> ('m -> int) -> unit

(** [send t ~src ~dst msg] schedules delivery of [msg] into [dst]'s inbox
    and returns. Messages from a node to itself have zero base delay (no
    latency sample is drawn) but still pass through the installed filter
    and all accounting, so fault plans and counters see every message. *)
val send : 'm t -> src:int -> dst:int -> 'm -> unit

(** [inbox t ~node] is [node]'s inbox, which its receiver drains by
    callbacks ({!Simul.Mailbox.serve}, or {!Simul.Mailbox.on_arrival} for
    a receiver that reads only while it waits). Only {!send} may put
    messages into it: delivery accounting happens there. *)
val inbox : 'm t -> node:int -> 'm Simul.Mailbox.t

(** Send attempts so far (including self-sends and filtered drops). *)
val messages_sent : 'm t -> int

(** Send attempts with [src <> dst]. *)
val remote_messages_sent : 'm t -> int

(** Copies actually placed into a destination mailbox so far (duplicates
    count once per copy). Counted at delivery time, not at send time:
    messages still in flight are {e not} included, so with no filter
    installed this equals {!messages_sent} only once every scheduled
    delivery has run. *)
val messages_delivered : 'm t -> int

(** Sends whose every copy was suppressed by the filter. *)
val messages_dropped : 'm t -> int

(** [forget_delivered t ~key ~dst] drops the delivery-dedup record for
    key [key] (see {!set_delivery_key}) at [dst], if any. The reliable
    channel calls this as its ack floor advances: once a stream's sequence
    is fully acknowledged the sender stops retransmitting it, so the
    record's dedup work is done and keeping it would grow the table for the
    life of the run. (A straggler duplicate still in flight when its record
    is pruned is counted again in {!messages_delivered} — a bounded
    statistics skew, never protocol-visible, since receiver-side dedup
    lives in the reliable channel's own per-stream delivered floor, which a
    pruned record's sequence is already at or below.) *)
val forget_delivered : 'm t -> key:int -> dst:int -> unit

(** Current number of (key, dst) delivery-dedup records retained.
    With ack-floor pruning this tracks the in-flight window and stays
    bounded on long runs; exposed so benches and tests can assert it. *)
val delivered_seen_size : 'm t -> int
