(** Structured event trace, used to replay the paper's Table 1.

    When an engine is created with a trace, it emits one event per
    protocol-relevant action (transaction arrival, data update with version,
    subtransaction issue/arrival, counter increments, advancement notices,
    completions). The Table 1 experiment renders these as the paper does:
    one row per event, columns TIME / SITE / description.

    Storage is a {e bounded ring buffer}: append and [length] are O(1) and
    memory is O(capacity) regardless of run length, so tracing a 10^6-event
    run cannot exhaust the heap. Once [capacity] events are retained, each
    new event evicts the oldest. An event's text is rendered when it is
    emitted; an untraced engine renders none. *)

type event = {
  time : float;
  site : string;  (** node name, or "coord" for the coordinator *)
  what : string;
}

type t

(** Default ring capacity: 65536 events. *)
val default_capacity : int

(** [create ?capacity ()] is an empty trace retaining at most [capacity]
    (default {!default_capacity}) events.
    @raise Invalid_argument if [capacity <= 0]. *)
val create : ?capacity:int -> unit -> t

(** The ring capacity the trace was created with. *)
val capacity : t -> int

(** [emit t ~time ~site what] appends an event, evicting the oldest if the
    ring is full. O(1). *)
val emit : t -> time:float -> site:string -> string -> unit

(** Retained events in emission order (oldest first). Allocates a fresh
    list; prefer {!iter} in loops. *)
val events : t -> event list

(** [iter t f] applies [f] to every retained event, oldest first, without
    allocating. *)
val iter : t -> (event -> unit) -> unit

(** Retained event count. Invariant: [length t = List.length (events t)],
    and [length t <= capacity t]. *)
val length : t -> int

(** Events emitted over the trace's lifetime, including evicted ones.
    [total t = length t + dropped t]. *)
val total : t -> int

(** Events evicted from the ring ([total] minus [length]). *)
val dropped : t -> int

(** Drop every retained event and reset the counters. Capacity (and the
    backing allocation) is kept. *)
val clear : t -> unit

(** [render t ~sites] formats the retained trace as a Table 1-style grid
    with one column per site name in [sites] (events from other sites get
    their own trailing column). *)
val render : t -> sites:string list -> string

(** [find t pattern] is all retained events whose description contains
    [pattern]. Single allocation-free scan of the ring. *)
val find : t -> string -> event list
