type t = Constant of float | Uniform of float * float | Exponential of float

let sample t rng =
  match t with
  | Constant d -> Float.max 0. d
  | Uniform (lo, hi) ->
      if hi <= lo then Float.max 0. lo
      else Float.max 0. (lo +. Random.State.float rng (hi -. lo))
  | Exponential mean ->
      if mean <= 0. then 0.
      else
        (* Inverse-CDF sampling; [1. -. float rng 1.] avoids log 0. *)
        -.mean *. log (1. -. Random.State.float rng 1.)

let mean = function
  | Constant d -> Float.max 0. d
  | Uniform (lo, hi) -> Float.max 0. ((lo +. hi) /. 2.)
  | Exponential m -> Float.max 0. m
