(** Counting semaphore with FIFO hand-over, for callback chains.

    Used to model local critical sections (e.g. a node's local serialization
    of subtransactions) without ever blocking on remote activity. *)

type t

(** [create n] is a semaphore with [n] initial permits. *)
val create : int -> t

(** [acquire_then sim s k] takes one permit, then runs [k]. With a permit
    free, [k] runs at once, inside the caller's event. Otherwise [k] waits
    in FIFO order, and the {!release} that hands it the permit queues [k]
    at the current instant, never inline in the releaser's step. [k] must
    eventually {!release}. *)
val acquire_then : Sim.t -> t -> (unit -> unit) -> unit

(** [release s] returns one permit, handing it to the oldest waiter if
    any. *)
val release : t -> unit
