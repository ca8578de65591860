(** Interned item keys.

    A key is its name plus a small integer id, made once per distinct name
    by {!intern}: every later [intern] of the same name returns the same
    key, physically. The store ({!Mvstore}) and the checkers' history
    index find an item by its id, with no string hash; everything a person
    reads (sorts, reports, printed lines) uses the name.

    Ids come from one process-wide counter in interning order, so they
    depend on which names a process interned before, and in what order.
    Nothing observable may depend on them: only lookups do. The record is
    private and the name comes first, so polymorphic [compare] and [=] on
    keys order and equate them exactly as [String.compare] and
    [String.equal] do their names. *)

type t = private { name : string; id : int }

(** [intern name] is the key named [name], made on the first call for
    that name with the next unused id. *)
val intern : string -> t

(** The key's name. *)
val name : t -> string

(** The key's id: [0] for the first name a process interns, then one more
    for each new name. *)
val id : t -> int

(** Same key (by id, which names determine one to one). *)
val equal : t -> t -> bool

(** Orders keys by name, as [String.compare] does. *)
val compare : t -> t -> int
