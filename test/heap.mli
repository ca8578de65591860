(** Array-backed binary min-heap.

    The event queue of the reference kernel ([Sim_oracle]), which the
    simulator's own timed queue is compared against. The ordering predicate [leq] is fixed
    at creation; ties are broken by the caller embedding a sequence number in
    the element, which keeps the whole simulation deterministic.

    The implementation is tuned for the event-loop hot path: sifting is
    hole-based (one ordering call and one array store per level), vacated
    slots are overwritten with [dummy] so popped elements — and the closures
    they capture — become collectable immediately, and {!clear} keeps the
    backing array so a drained-and-refilled heap does not re-grow. *)

type 'a t

(** [create ?capacity ~dummy ~leq ()] is an empty heap ordered by [leq] (a
    {e total} preorder: [leq a b] means [a] sorts before or equal to [b];
    totality — [leq a b || leq b a] for all elements — is required, and is
    what lets the heap use a single predicate call per comparison). [dummy]
    is an inert element used to fill empty slots; it is never returned.
    [capacity] (default 0) pre-sizes the backing array so a heap whose
    steady-state population is known up front never pays doubling copies. *)
val create : ?capacity:int -> dummy:'a -> leq:('a -> 'a -> bool) -> unit -> 'a t

(** Number of elements currently in the heap. *)
val length : 'a t -> int

(** [is_empty h] is [length h = 0]. *)
val is_empty : 'a t -> bool

(** [add h x] inserts [x]. O(log n). *)
val add : 'a t -> 'a -> unit

(** [pop_min h] removes and returns the minimum element. The vacated slot is
    reset to [dummy], so the heap keeps no reference to popped elements.
    @raise Not_found if the heap is empty. *)
val pop_min : 'a t -> 'a

(** [top h] returns the minimum element without removing it. Allocates
    nothing, so an event loop can test the next element on every iteration.
    @raise Not_found if the heap is empty. *)
val top : 'a t -> 'a

(** [clear h] removes every element. Capacity is retained; every slot is
    reset to [dummy]. *)
val clear : 'a t -> unit
