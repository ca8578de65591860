(** Walks the source tree, parses every [.ml]/[.mli] with compiler-libs
    (once per file — the per-file rules and the cross-file {!Flowgraph}
    pass share the tree), runs the {!Rules} catalog, and applies inline
    waivers plus the [lint.config] allowlist.

    Waiver syntax: an inline comment [(* lint: <tag> reason... *)] with
    [<tag>] one of [nondet-ok] (R1), [hash-order-ok] (R2), [compare-ok]
    (R3), [trace-ok] (R4), [doc-ok] (R5), [oracle-ok] (R6), [flow-ok]
    (R7), [order-ok] (R8), [guard-ok] (R9), [unsafe-ok] (R10),
    [layout-ok] (R12). A waiver
    suppresses findings of its rule from its own line through two lines
    past the comment's closing delimiter. Markers are recognized only
    inside comments — a ["lint:"] occurring in a string literal arms
    nothing. *)

(** [(tag, rule-id)] for every recognized waiver tag. *)
val waiver_tags : (string * string) list

(** [lint_source ~config ~filename source] lints one file's content
    ([filename] decides implementation vs interface and path-scoped rules)
    and returns [(kept_findings, waived, allowlisted)]. Unparseable input
    yields a single [syntax] finding. The flowgraph pass sees only this
    one file. *)
val lint_source :
  ?config:Config.t ->
  filename:string ->
  string ->
  Report.finding list * int * int

(** {!lint_source} returning only the kept findings, sorted — the fixture
    entry point used by the tests. *)
val lint_string :
  ?config:Config.t -> filename:string -> string -> Report.finding list

(** Lint a set of in-memory files as one run — the cross-file R7 pass
    joins send and handler facts across all of them. No missing-[.mli]
    check (fixture sets are not full library trees). A line of [config]
    that resolves to nothing among the files is a finding, as in
    {!run}. *)
val run_sources : ?config:Config.t -> (string * string) list -> Report.t

(** Repo-relative paths of every [.ml]/[.mli] under [root]'s [lib] and
    [bin], sorted; [_build] and dot-directories are skipped. *)
val walk : string -> string list

(** Lint the whole tree under [root]: the rule catalog over {!walk}'s
    files, and R12 (layout) over those and every [.ml]/[.mli] under
    [test]. [config_path] (default ["lint.config"], resolved against
    [root] when relative) supplies the allowlist; [rule] restricts the
    report to one rule id. Every line of the configuration must resolve,
    and one that does not is a finding of the rule that reads it, which
    neither a waiver nor the allowlist suppresses: an [engine] or
    [protocol] path naming no scanned file (R5, R7, at that path), a
    [protocol] type its file does not declare as a variant (R7, at that
    file), an [allow] glob matching no scanned file (its rule, at the
    glob), a [deny-type M.t] that no scanned module [M] declares (R3) and
    a [phase-msg] constructor that no scanned variant declares (R8), both
    at [lint.config]. *)
val run : ?config_path:string -> ?rule:string -> root:string -> unit -> Report.t
