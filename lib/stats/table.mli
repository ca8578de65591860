(** Plain-text table rendering for bench and experiment reports.

    Produces GitHub-flavoured markdown tables (also valid as aligned
    monospace output) from a header row and data rows. Cells are strings;
    helpers format numbers consistently. *)

type t

(** [create ~title ~columns] is an empty table. *)
val create : title:string -> columns:string list -> t

(** [add_row t cells] appends a row.
    @raise Invalid_argument if the arity differs from the header. *)
val add_row : t -> string list -> unit

(** Number of data rows. *)
val rows : t -> int

(** Render with column alignment, preceded by the title. *)
val to_string : t -> string

(** [print t] writes {!to_string} to stdout followed by a newline. *)
val print : t -> unit

(** Format a float compactly: 4 significant digits, no trailing noise. *)
val cell_f : float -> string

(** Format an integer. *)
val cell_i : int -> string

(** Format a percentage out of a total, e.g. [cell_pct 3 12 = "25.0%"]. *)
val cell_pct : int -> int -> string
