(** Message latency models for the simulated network.

    [Constant] preserves FIFO per link; the stochastic models can reorder
    messages, which is exactly what exercises the 3V protocol's tolerance to
    late version-advancement notices and in-flight subtransactions. *)

type t =
  | Constant of float  (** fixed delay in seconds *)
  | Uniform of float * float  (** uniform in [lo, hi] *)
  | Exponential of float  (** exponential with the given mean *)

(** [sample t rng] draws one delay, always ≥ 0. *)
val sample : t -> Random.State.t -> float

(** Mean of the model's distribution. *)
val mean : t -> float
