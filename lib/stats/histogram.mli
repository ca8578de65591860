(** Log-bucketed latency histogram with percentile queries.

    Buckets grow geometrically from a configurable smallest resolution, HDR
    style: cheap to record into, accurate to within the bucket growth factor
    when reporting percentiles. Non-positive observations land in a dedicated
    zero bucket. *)

type t

(** [create ?least ?growth ()] is an empty histogram. [least] is the upper
    bound of the first positive bucket (default [1e-6]); [growth] the
    geometric factor between bucket bounds (default [1.25]).
    @raise Invalid_argument if [least <= 0.] or [growth <= 1.]. *)
val create : ?least:float -> ?growth:float -> unit -> t

(** [add h x] records one observation. *)
val add : t -> float -> unit

(** [bucket_of h x] is the bucket index recording [x]: 0 for non-positive
    values, 1 for (0, least], and for i >= 2 the range
    (least·growth^(i-2), least·growth^(i-1)] — upper-inclusive, so an exact
    bucket bound lands in the bucket it bounds. It is a binary search over
    a table of the bounds, which grows with the buckets.
    @raise Invalid_argument if [x] is nan. *)
val bucket_of : t -> float -> int

(** [bound_of h i] is the inclusive upper bound of bucket [i] (0. for the
    zero bucket). *)
val bound_of : t -> int -> float

(** Number of observations recorded. *)
val count : t -> int

(** Exact largest observation; [neg_infinity] when empty. *)
val max : t -> float

(** Exact smallest observation; [infinity] when empty. *)
val min : t -> float

(** [percentile h p] with [0. <= p <= 100.] is an upper bound on the value at
    the [p]-th percentile; 0. when empty. *)
val percentile : t -> float -> float

(** [merge a b] is a histogram over both observation streams.
    @raise Invalid_argument if bucket layouts differ. *)
val merge : t -> t -> t

(** "p50=… p90=… p99=… max=…" one-liner. *)
val pp : Format.formatter -> t -> unit
