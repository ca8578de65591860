(** Deterministic discrete-event simulation kernel.

    A simulation owns a virtual clock and one total order of events: by
    time, then by insertion sequence, so a run with a fixed seed is fully
    deterministic. An event is a plain callback. Every simulated actor
    (node dispatch, subtransactions, coordinators, timers, clients) is a
    chain of callbacks whose steps hand over through {!after},
    {!Semaphore.acquire_then}, {!Mailbox.serve} or a lock manager's
    [acquire_then]: each hand-over queues the next step as an event, and
    nothing suspends.

    The order is kept by two queues. An event for a later time waits in
    the timed queue: a binary min-heap keyed by [(time, sequence)], kept
    in three parallel arrays (the times unboxed in a [float array], the
    sequence numbers, the closures), so queuing a timed event allocates
    nothing and running one allocates only the boxed clock it sets. An
    event for the current time (a hand-over, an inbox wake, a schedule
    whose delay does not move the clock; most events of a run) joins a
    FIFO instead, with no heap operation. A timed event at the current
    time was scheduled before the clock got there, so it precedes every
    FIFO event: the loop runs those first, then the FIFO, and only then
    advances the clock. Sequence numbers are drawn on every push to either
    queue, so {!last_seq} means the same as with a single heap. A number
    can also be drawn ahead of its event ({!reserve}), which joins the
    timed queue later at the place that number gives it.

    A chain catches its steps' exceptions and reports them through
    {!fail}, so the run stops with {!Process_failure} naming the actor
    that failed. A deadlock or a lost wakeup leaves a chain with no step
    queued: the run ends with its work unfinished (an unresolved result),
    which the golden digests and checkers see. Virtual time is in abstract
    seconds. *)

type t

(** Result of {!run}. *)
type outcome =
  | Completed  (** Event queue drained. *)
  | Hit_limit  (** Stopped because the [until] horizon was reached. *)

exception Process_failure of string * exn
(** Raised by {!run} when callback work recorded a failure with {!fail}:
    carries the work's name and the original exception. A registered
    printer shows both, so [Printexc.to_string] names the inner failure. *)

(** [create ?seed ?queue_capacity ()] is a fresh simulation whose RNG is
    seeded with [seed] (default 42). [queue_capacity] pre-sizes the timed
    queue's three arrays (default 16, grown by doubling): pass the
    expected steady-state number of events pending for later times — e.g.
    derived from the configured arrival rate — to avoid growth copies
    during a run. The current-time FIFO grows by doubling on its own.
    Capacity never affects scheduling order. *)
val create : ?seed:int -> ?queue_capacity:int -> unit -> t

(** Current virtual time, in seconds. *)
val now : t -> float

(** The simulation's deterministic random state. *)
val rng : t -> Random.State.t

(** Number of simulated events executed so far, from either queue. *)
val events_executed : t -> int

(** The last sequence number drawn, by a scheduled event or by
    {!reserve}. Two equal-time events execute in sequence order, so two
    runs that push the same events and reserve the same numbers in the
    same order end with the same [last_seq]. *)
val last_seq : t -> int

(** [schedule t ~delay f] enqueues plain callback [f] to run at
    [now t +. delay]; [delay] must be non-negative, and [~delay:0.] queues
    [f] at the current instant, behind the events already there. The delay
    is a required argument so that no call boxes it in an option. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [reserve t] draws the next sequence number, as scheduling an event
    would, and queues nothing. {!schedule_reserved} queues an event under
    it later, in the place it would have had if scheduled now. *)
val reserve : t -> int

(** [schedule_reserved t ~at ~seq f] queues [f] to run at time [at] under
    [seq], a number from {!reserve}: among events at [at] it runs in
    sequence order, wherever it was pushed from. [at] must not precede the
    clock, and [seq] must have been reserved before the clock reached
    [at]: at the current instant the event runs before the events the
    instant's own callbacks queued there. *)
val schedule_reserved : t -> at:float -> seq:int -> (unit -> unit) -> unit

(** [after t d k] runs [k] [d] virtual seconds from now, on two events: an
    event at [now t +. d] that queues [k] at the then-current instant,
    behind the events already there. This is the delay between two steps
    of a callback chain (a think, a timer tick, a client's gap). [d] must
    be non-negative. When [d] moves the clock, the first event is a tag on
    [k]'s entry in the timed queue, not a closure of its own, so [after]
    allocates no more than {!schedule}. *)
val after : t -> float -> (unit -> unit) -> unit

(** [fail t name exn] records that callback work named [name] raised [exn]:
    {!run} stops after the current event and raises
    [Process_failure (name, exn)]. A chain calls it from a handler around
    each of its steps, so a failure names the actor it stopped. The first
    failure recorded wins. *)
val fail : t -> string -> exn -> unit

(** [run t ?until ()] executes events until the queue drains or virtual time
    would exceed [until]. Raises the first failure recorded by {!fail} as
    {!Process_failure}. Can be called again after [Hit_limit] to continue. *)
val run : t -> ?until:float -> unit -> outcome
