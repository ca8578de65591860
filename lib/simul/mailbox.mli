(** Unbounded FIFO channel between simulated actors.

    Senders never block. A receiver drains the mailbox by callbacks: a
    one-shot arrival hook ({!on_arrival}) tells it that a message was
    queued, and it {!take}s messages while {!length} is positive. {!serve}
    is that drain, written once for every node-like receiver. Messages are
    delivered in send order, keeping runs deterministic. Queued messages
    are held unboxed in a growable ring buffer, so a steady-state send
    allocates nothing and a pre-sized mailbox never copies its backing
    array. The ring's array is allocated by the first message queued,
    which the mailbox then keeps for its lifetime as the filler of vacated
    slots: a taken message is otherwise not retained. *)

type 'a t

(** [create ?capacity ()] is an empty mailbox. [capacity] (default 16)
    sizes the ring buffer the first send allocates to the expected queue
    depth; the ring still grows by doubling if exceeded. Capacity never
    affects delivery order. *)
val create : ?capacity:int -> unit -> 'a t

(** [send m x] enqueues [x]; an armed arrival hook is then disarmed and
    called, after [x] is in the queue. *)
val send : 'a t -> 'a -> unit

(** [on_arrival m hook] arms a one-shot arrival hook: the next {!send}
    calls [hook ()] once and disarms it. Arming replaces any hook already
    armed. *)
val on_arrival : 'a t -> (unit -> unit) -> unit

(** [serve sim m ~name h] drains [m] by callbacks, for the life of the
    run: a message reaching an idle [m] queues the drain at the current
    instant, and messages arriving before it runs or while it runs only
    join the queue. The drain {!take}s the next message [x] and calls
    [h x next]; [h] calls [next ()] when it is ready for the following
    message: at once, or from a later event of its own when it holds [x]
    (a paused receiver). On an empty mailbox the drain re-arms the hook.
    The drain and hook closures are allocated once, so a wake allocates
    nothing but its event. An exception raised while draining stops the
    run as [Sim.Process_failure (name, exn)]; a step [h] defers to a later
    event runs outside the drain and reports its own failure
    ({!Sim.fail}). Call it once per mailbox, and take from [m] nowhere
    else. *)
val serve : Sim.t -> 'a t -> name:string -> ('a -> (unit -> unit) -> unit) -> unit

(** [take m] dequeues the next message.
    @raise Invalid_argument if [m] is empty. *)
val take : 'a t -> 'a

(** Number of queued (undelivered) messages. *)
val length : 'a t -> int
