(** Append-only (x, y) series, e.g. a metric sampled over virtual time.

    Used by experiments that sweep a parameter or sample a gauge during a
    run, then render the series as a table row or compute aggregates. *)

type t

(** [create ()] is an empty series. *)
val create : unit -> t

(** [add s ~x ~y] appends a point. [x] values are expected nondecreasing but
    this is not enforced. *)
val add : t -> x:float -> y:float -> unit

(** Number of points appended so far. *)
val length : t -> int

(** Points in insertion order. *)
val to_list : t -> (float * float) list

(** Mean of the y values; 0. when empty. *)
val mean_y : t -> float

(** Largest y value; 0. when empty. *)
val max_y : t -> float

(** Last point, if any. *)
val last : t -> (float * float) option

(** [resample s ~buckets] averages y over [buckets] equal-width x ranges,
    producing at most [buckets] points — handy for compact table output. *)
val resample : t -> buckets:int -> (float * float) list

(** [sparkline s ~buckets] renders the series as a one-line bar chart using
    Unicode block characters (▁▂▃▄▅▆▇█), one character per bucket, scaled
    to the series maximum. Empty series render as [""]; empty buckets as
    spaces. *)
val sparkline : t -> buckets:int -> string
