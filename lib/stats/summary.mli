(** Streaming univariate summary (count / mean / variance / min / max).

    Uses Welford's online algorithm, so it is numerically stable and O(1)
    per observation. *)

type t

(** An empty summary. *)
val create : unit -> t

(** [add s x] records observation [x]. *)
val add : t -> float -> unit

(** Number of observations recorded. *)
val count : t -> int

(** Mean of the observations; 0. when empty. *)
val mean : t -> float

(** Unbiased sample variance; 0. with fewer than two observations. *)
val variance : t -> float

val min : t -> float
(** Minimum observation; [infinity] when empty. *)

val max : t -> float
(** Maximum observation; [neg_infinity] when empty. *)

val total : t -> float
(** Sum of the observations. *)

(** [merge a b] is a summary equivalent to observing both streams. *)
val merge : t -> t -> t
