(** The versioned lint configuration ([lint.config] at the repo root).

    Line-oriented, ['#'] comments. Five directives:

    - [allow <rule-id> <path-glob> [note]] — suppress a rule for matching
      files (e.g. the CLI's process exit status);
    - [deny-type <Module.type>] — a type whose values must not meet the
      polymorphic [compare]/[=] (rule R3);
    - [engine <path.mli>] — an interface that must [include Engine_intf.S]
      (rule R5);
    - [protocol <path.ml> <typename>] — a variant type whose constructors
      are protocol messages: the message-flow pass (rule R7) checks every
      sent constructor has a handler branch;
    - [phase-msg <Constructor>] — a protocol constructor whose send must be
      dominated by a [Coord_log.append] (rule R8).

    A line that resolves to nothing in the scanned tree is itself a
    finding of the rule that reads it ({!Driver.run}). *)

type allow = { a_rule : string; a_glob : string; a_note : string }

type t = {
  allows : allow list;
  deny_types : string list;
  engines : string list;
  protocols : (string * string) list;
      (** [(file, typename)] pairs naming protocol-message types *)
  phase_msgs : string list;  (** constructors under R8 log-before-send *)
}

(** No allows, no deny-types, no engines. *)
val empty : t

(** [glob_match pattern path]: segment-wise matching where ["**"] spans any
    number of path segments and ['*'] matches within one segment. *)
val glob_match : string -> string -> bool

(** Parse configuration text.
    @raise Invalid_argument on an unknown directive. *)
val parse : string -> t

(** Parse the file at [path]; {!empty} if the file does not exist. *)
val load : string -> t

(** Is [rule] suppressed for [file] by some [allow] line? *)
val allowed : t -> rule:string -> file:string -> bool
