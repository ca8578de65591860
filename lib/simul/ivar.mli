(** Single-assignment variable ("future").

    An {!t} starts empty; {!fill} writes it exactly once. Used to hand
    transaction results back to their submitters: the harness and the
    tests read a result with {!peek} once the run has gone past it, so
    nothing waits on an ivar. *)

type 'a t

(** A fresh empty IVar. *)
val create : unit -> 'a t

(** [fill v x] sets the value.
    @raise Invalid_argument if [v] is already full. *)
val fill : 'a t -> 'a -> unit

(** [peek v] is the value if filled. *)
val peek : 'a t -> 'a option

(** [is_full v] is true once {!fill} has happened. *)
val is_full : 'a t -> bool
