(** The determinism & protocol-hygiene rule catalog (R1–R10, R12).

    Rules are purely syntactic passes over the compiler-libs parsetree plus
    the raw source text — no typing. R3 in particular is an
    annotation-driven heuristic: it sees a denied type only where a type
    constraint in the argument names it.

    {ul
    {- R1 — banned nondeterminism sources: the global RNG, wall-clock
       reads, [Hashtbl.hash], [exit].}
    {- R2 — [Hashtbl.iter]/[Hashtbl.fold] with no dominating sort in the
       same top-level binding: the enumeration order is hash-layout
       dependent.}
    {- R3 — polymorphic [compare]/[=]/[min]/[max] applied at a deny-listed
       type (one containing functions or mutable state).}
    {- R4 — trace emission ([tr] / [Trace.emit]) on a [lib/core],
       [lib/net], [lib/repl] or [lib/shard] path with no controlling
       [tracing] guard (checked on the {!Order} guard-dominance engine).}
    {- R5 — interface hygiene: every [lib/**] module has an [.mli], every
       exported value a doc comment, and engine interfaces
       [include Engine_intf.S].}
    {- R6 — liveness-oracle hygiene: [Injector.down]/[coord_down] (the
       fault plan's ground truth) consulted from a [lib/core], [lib/repl]
       or [lib/shard] path; protocol code must decide liveness from the
       failure detector.}
    {- R7 — handler totality (the {!Flowgraph} pass, run by the driver
       across files): sent protocol constructors without a handler branch,
       and dispatch catch-alls swallowing protocol messages.}
    {- R8 — log-before-send: a send of a [phase-msg] constructor not
       dominated by a [Coord_log.append] on every path from its binding's
       entry.}
    {- R9 — guard dominance: [Mvstore.gc] on a [lib/**] path outside a
       region controlled by a [gc_floor] comparison.}
    {- R10 — unsafe-access confinement: [Array]/[String]/[Bytes]
       [unsafe_get]/[unsafe_set] and [Obj.magic] anywhere not allowlisted
       in [lint.config].}
    {- R12 — layout, on the raw text of every scanned file, [test/]
       included: no tab, no trailing whitespace, no line over 100 columns
       (code points). It needs no formatter, so it runs on every
       toolchain.}} *)

(** Mutable per-file rule state: findings accumulate as the walks run. *)
type ctx = {
  file : string;  (** repo-relative, '/'-separated — drives path scoping *)
  config : Config.t;
  mutable findings : Report.finding list;
}

(** Fresh context for one file; [config] defaults to {!Config.empty}. *)
val make_ctx : ?config:Config.t -> file:string -> unit -> ctx

(** [(id, one-line description)] for every rule, in catalog order. *)
val all : (string * string) list

(** Run the per-file implementation rules — R1–R4, R6, R8–R10 — over a
    parsetree. R7 is cross-file and lives in {!Flowgraph}, driven by
    {!Driver}. *)
val check_structure : ctx -> Parsetree.structure -> unit

(** Run R5's doc-comment and engine-interface checks over an interface's
    parsetree. *)
val check_interface : ctx -> Parsetree.signature -> unit

(** The R5 finding for a [lib/**] module with no [.mli] at all. *)
val missing_mli : file:string -> Report.finding

(** [layout ~file source] is R12's findings for one file's text: a tab
    (at its first column), trailing whitespace (where it starts) and a
    line over 100 code points, each at most once per line. *)
val layout : file:string -> string -> Report.finding list
