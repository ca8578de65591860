(** Counting semaphore with FIFO wakeup, for simulated processes.

    Used to model local critical sections (e.g. a node's local serialization
    of subtransactions) without ever blocking on remote activity. *)

type t

(** [create n] is a semaphore with [n] initial permits. *)
val create : int -> t

(** [acquire sim s] takes one permit, suspending while none are available. *)
val acquire : Sim.t -> t -> unit

(** [acquire_then sim s k] takes one permit for callback code, then runs
    [k]. With a permit free, [k] runs at once, inside the caller's event.
    Otherwise the acquire queues [k] with the blocked processes, in the same
    FIFO; the {!release} that hands it the permit queues [k] at the current
    instant, which is the event a blocked {!acquire}'s waker takes. [k]
    must eventually {!release}. *)
val acquire_then : Sim.t -> t -> (unit -> unit) -> unit

(** [release s] returns one permit, handing it to the oldest waiter if
    any. *)
val release : t -> unit

(** [with_permit sim s f] runs [f ()] holding a permit, releasing it even if
    [f] raises. *)
val with_permit : Sim.t -> t -> (unit -> 'a) -> 'a
