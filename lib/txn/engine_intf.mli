(** Common interface implemented by every concurrency-control engine.

    The 3V engine ([Threev.Engine]) and the engines of the three §1
    baselines ([Baselines.Global_2pc], and [Baselines.Manual_versioning]
    for both no coordination and manual versioning) all satisfy {!S}, so
    workloads, checkers and experiments run unchanged against any of them.
    An engine receives fully-specified transactions ({!Spec.t}) and
    resolves each one to a {!Result.t} through an IVar — the submitting
    process may await the IVar or fire-and-forget. *)

module type S = sig
  type t

  (** Engine name for reports (e.g. "3v", "global-2pc"). *)
  val name : t -> string

  (** [submit t spec] starts the transaction; the returned IVar is filled
      when it commits or aborts. Never suspends the caller. *)
  val submit : t -> Spec.t -> Result.t Simul.Ivar.t

  (** Instrumentation counters (messages, dual writes, aborts, ...). *)
  val stats : t -> Stats.Counter_set.t
end

(** An engine packed with its module, for heterogeneous experiment tables. *)
type packed = Packed : (module S with type t = 'a) * 'a -> packed

(** {!S.name} of a packed engine. *)
val packed_name : packed -> string

(** {!S.submit} through the pack: submits [spec] to the wrapped engine. *)
val packed_submit : packed -> Spec.t -> Result.t Simul.Ivar.t

(** {!S.stats} of a packed engine. *)
val packed_stats : packed -> Stats.Counter_set.t
