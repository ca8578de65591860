(** Named monotone counters for instrumentation.

    A lightweight string-keyed bag of integer counters used by engines to
    report message counts, dual-writes, copies, aborts, etc. *)

type t

(** An empty counter set. *)
val create : unit -> t

(** [incr t name ?by ()] adds [by] (default 1) to [name], creating it at 0. *)
val incr : t -> string -> ?by:int -> unit -> unit

(** [get t name] is the counter's value, 0 when absent. *)
val get : t -> string -> int

(** All (name, value) pairs sorted by name. *)
val to_list : t -> (string * int) list

(** [merge a b] sums counters pointwise into a fresh set; bumping the
    result never changes [a] or [b]. *)
val merge : t -> t -> t

(** [reset t] empties the set: every name is dropped, so each counter
    reads 0 and {!to_list} is [[]] until the next {!incr}. *)
val reset : t -> unit

(** Prints "name=value" pairs sorted by name. *)
val pp : Format.formatter -> t -> unit
