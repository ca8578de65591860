(** Unbounded FIFO channel between simulated processes.

    Senders never block. A receiver either suspends while the mailbox is
    empty ({!recv}) or drains it by callbacks from a one-shot arrival hook
    ({!on_arrival}, {!take}). Messages are delivered in send order, and
    blocked receivers are woken in arrival order, keeping runs
    deterministic. Queued messages are held unboxed in a growable ring
    buffer, so a steady-state send allocates nothing and a pre-sized
    mailbox never copies its backing array. The ring's array is allocated
    by the first message queued, which the mailbox then keeps for its
    lifetime as the filler of vacated slots: a taken message is otherwise
    not retained. *)

type 'a t

(** [create ?capacity ()] is an empty mailbox. [capacity] (default 16)
    sizes the ring buffer the first send allocates to the expected queue
    depth; the ring still grows by doubling if exceeded. Capacity never
    affects delivery order. *)
val create : ?capacity:int -> unit -> 'a t

(** [send m x] enqueues [x], waking the oldest blocked receiver if any.
    Otherwise [x] is queued, and an armed arrival hook is disarmed and
    called, after [x] is in the queue. *)
val send : 'a t -> 'a -> unit

(** [on_arrival m hook] arms a one-shot arrival hook: the next {!send}
    that queues a message calls [hook ()] once and disarms it. This is
    how a mailbox is drained by callbacks instead of a blocked process:
    the hook queues the drain on the simulation (the event a blocked
    receiver's waker takes), the drain {!take}s messages while
    {!length} is positive, and re-arms the hook when the mailbox is empty.
    A drained mailbox has no blocked receivers; arming replaces any hook
    already armed. *)
val on_arrival : 'a t -> (unit -> unit) -> unit

(** [take m] dequeues the next message without blocking.
    @raise Invalid_argument if [m] is empty. *)
val take : 'a t -> 'a

(** [recv sim m] dequeues the next message, suspending until one exists. *)
val recv : Sim.t -> 'a t -> 'a

(** Number of queued (undelivered) messages. *)
val length : 'a t -> int
