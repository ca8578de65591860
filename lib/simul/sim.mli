(** Deterministic discrete-event simulation kernel.

    A simulation owns a virtual clock and one total order of events: by
    time, then by insertion sequence, so a run with a fixed seed is fully
    deterministic. Green processes are OCaml 5 effect-handler coroutines: a
    process suspends by registering a {e waker}; invoking the waker
    schedules the continuation at the current virtual time.

    The order is kept by two queues. An event for a later time waits in
    the timed queue: a binary min-heap keyed by [(time, sequence)], kept
    in three parallel arrays (the times unboxed in a [float array], the
    sequence numbers, the closures), so queuing a timed event allocates
    nothing and running one allocates only the boxed clock it sets. An
    event for the current time (a waker, a yield, a spawn, a schedule
    whose delay does not move the clock; most events of a run) joins a
    FIFO instead, with no heap operation. A timed event at the current
    time was scheduled before the clock got there, so it precedes every
    FIFO event: the loop runs those first, then the FIFO, and only then
    advances the clock. Sequence numbers are drawn on every push to either
    queue, so {!last_seq} means the same as with a single heap.

    Work that never waits on anything but its own timers, a local lock and
    its inbox can run as plain callbacks instead of a process, on the same
    events: a chain of callbacks whose steps hand over through {!after},
    {!Semaphore.acquire_then} and {!Mailbox.on_arrival} executes at
    exactly the events, in exactly the order, of a process that sleeps,
    acquires and receives where the chain hands over, and pays no effect
    switch and no process record. (A receiver armed with
    {!Mailbox.on_arrival} also has no start event: a process blocked in
    {!Mailbox.recv} had to be spawned first.) A callback that raises
    reports through {!fail}, so the run stops with {!Process_failure} as a
    process's would. Callbacks are not processes: {!Stalled} never names
    one.

    The distributed machinery in this repository (node dispatch, messages,
    transactions, the version-advancement coordinator) runs on this kernel:
    node inboxes, every 3V subtransaction (NC3V's lock and admission waits
    included), the coordinators, the engine's timers and the workload
    client as callbacks. Only the baselines, Table 1's script, the
    runner's in-flight sampler and the CLI's trace client still run as
    processes. Virtual time is in abstract seconds. *)

type t

(** Result of {!run}. *)
type outcome =
  | Completed  (** Event queue drained; no non-daemon process is blocked. *)
  | Stalled of string list
      (** Event queue drained but the named non-daemon processes are still
          blocked — a deadlock or a lost wakeup in the model under test. *)
  | Hit_limit  (** Stopped because the [until] horizon was reached. *)

exception Process_failure of string * exn
(** Raised by {!run} when a process terminated with an uncaught exception:
    carries the process name and the original exception. A registered
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

(** Sequence number of the most recently scheduled event. Two equal-time
    events execute in sequence order, so two runs that push the same
    events in the same order end with the same [last_seq]. *)
val last_seq : t -> int

(** [spawn t ?daemon ?name body] creates a process running [body].
    Daemon processes (e.g. server loops) may remain blocked forever without
    the run being reported as {!Stalled}. Default [daemon] is [false]. *)
val spawn : t -> ?daemon:bool -> ?name:string -> (unit -> unit) -> unit

(** [schedule t ~delay f] enqueues plain callback [f] to run at
    [now t +. delay]; [delay] must be non-negative, and [~delay:0.] queues
    [f] at the current instant. The callback must not suspend. The delay is
    a required argument so that no call boxes it in an option. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [suspend t register] suspends the calling process. [register] receives the
    waker; calling the waker with a value resumes the process with that value
    at the then-current virtual time. The waker must be invoked exactly
    once. Must be called from within a process. *)
val suspend : t -> (('a -> unit) -> unit) -> 'a

(** [sleep t d] suspends the calling process for [d] virtual seconds. *)
val sleep : t -> float -> unit

(** [after t d k] is {!sleep} for a callback: [k] runs [d] virtual seconds
    from now on the two events a process sleeping [d] resumes on — an event
    at [now t +. d] that queues [k] at the then-current instant, behind the
    events already there. [d] must be non-negative. When [d] moves the
    clock, the first event is a tag on [k]'s entry in the timed queue,
    not a closure of its own, so [after] allocates no more than
    {!schedule}. *)
val after : t -> float -> (unit -> unit) -> unit

(** [fail t name exn] records that callback work named [name] raised [exn]:
    {!run} stops after the current event and raises
    [Process_failure (name, exn)], as if a process named [name] had died of
    [exn]. The first failure recorded wins. *)
val fail : t -> string -> exn -> unit

(** [yield t] reschedules the calling process behind already-pending events at
    the current time. *)
val yield : t -> unit

(** [run t ?until ()] executes events until the queue drains or virtual time
    would exceed [until]. Re-raises the first process failure as
    {!Process_failure}. Can be called again after [Hit_limit] to continue. *)
val run : t -> ?until:float -> unit -> outcome
