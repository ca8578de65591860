(* The determinism & protocol-hygiene rule catalog. Purely syntactic: each
   rule works on the parsetree (compiler-libs [Parse] output) plus the raw
   source text — no typing pass. Where a rule needs type knowledge (R3) it
   settles for a conservative, annotation-driven heuristic and says so. *)

type ctx = {
  file : string;  (** repo-relative, '/'-separated — drives path scoping *)
  config : Config.t;
  mutable findings : Report.finding list;
}

let make_ctx ?(config = Config.empty) ~file () = { file; config; findings = [] }

let add ctx (loc : Location.t) rule msg =
  let p = loc.Location.loc_start in
  ctx.findings <-
    {
      Report.file = ctx.file;
      line = p.Lexing.pos_lnum;
      col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
      rule;
      msg;
    }
    :: ctx.findings

let all =
  [
    ("R1", "banned nondeterminism sources (wall clock, global RNG, \
            Hashtbl.hash, exit)");
    ("R2", "Hashtbl.iter/fold/to_seq* without a dominating sort in the \
            same top-level binding");
    ("R3", "polymorphic compare/equality at a deny-listed type");
    ("R4", "unguarded trace emission on a lib/core / lib/net / lib/repl / \
            lib/shard path");
    ("R5", "missing .mli, undocumented export, or engine not implementing \
            Engine_intf");
    ("R6", "ground-truth liveness oracle (Injector.down / coord_down) \
            consulted from a lib/core / lib/repl / lib/shard path");
    ("R7", "handler totality: a sent protocol constructor with no handler \
            branch, or a dispatch catch-all swallowing protocol messages");
    ("R8", "log-before-send: a phase-message send not dominated by a \
            Coord_log.append on every path");
    ("R9", "guard dominance: Mvstore.gc outside a gc_floor comparison \
            (re-delivered GC notices must stay idempotent)");
    ("R10", "unsafe accesses (Array/String/Bytes.unsafe_*, Obj.magic) \
             outside the allowlisted flat-counter modules");
  ]

let lid_str lid = String.concat "." (Longident.flatten lid)

(* ------------------------------------------------------------------ R1 *)

(* The global (implicitly-seeded) RNG entry points; [Random.State.*] with an
   explicit seeded state is the sanctioned API and never matches because its
   flattened path carries the [State] segment. *)
let r1_banned =
  [
    ("Random.self_init", "seeds the global RNG from the environment");
    ("Random.init", "reseeds the global RNG; use Random.State.make");
    ("Random.int", "global RNG; use a seeded Random.State");
    ("Random.full_int", "global RNG; use a seeded Random.State");
    ("Random.float", "global RNG; use a seeded Random.State");
    ("Random.bool", "global RNG; use a seeded Random.State");
    ("Random.bits", "global RNG; use a seeded Random.State");
    ("Random.int32", "global RNG; use a seeded Random.State");
    ("Random.int64", "global RNG; use a seeded Random.State");
    ("Random.nativeint", "global RNG; use a seeded Random.State");
    ("Sys.time", "wall-clock read breaks replay determinism");
    ("Unix.gettimeofday", "wall-clock read breaks replay determinism");
    ("Unix.time", "wall-clock read breaks replay determinism");
    ("Unix.localtime", "wall-clock read breaks replay determinism");
    ("Unix.gmtime", "wall-clock read breaks replay determinism");
    ("Hashtbl.hash", "layout-dependent hash; write a structural digest");
    ("Hashtbl.seeded_hash", "layout-dependent hash; write a structural digest");
    ("Hashtbl.hash_param", "layout-dependent hash; write a structural digest");
    ("Stdlib.exit", "kills the whole simulation; return a status instead");
    ("exit", "kills the whole simulation; return a status instead");
  ]

let r1_check ctx lid loc =
  match List.assoc_opt (lid_str lid) r1_banned with
  | Some why -> add ctx loc "R1" (Printf.sprintf "%s: %s" (lid_str lid) why)
  | None -> ()

(* ------------------------------------------------------------------ R6 *)

(* Protocol code deciding anything from the injector's crash-window
   tables is consulting an oracle no deployable system has: the plan is
   script, not observation. Routing, quorum and watchdog decisions must
   come from the failure detector (observed heartbeats). The injector's
   own modules, the harness and tests are out of scope — they legitimately
   own or assert against the ground truth. *)
let r6_in_scope file =
  let pfx p =
    String.length file >= String.length p && String.sub file 0 (String.length p) = p
  in
  pfx "lib/core/" || pfx "lib/repl/" || pfx "lib/shard/"

let r6_check ctx lid loc =
  match List.rev (Longident.flatten lid) with
  | ("down" | "coord_down") :: "Injector" :: _ ->
      add ctx loc "R6"
        (Printf.sprintf
           "%s reads the fault plan's ground truth from protocol code; \
            decide liveness from the failure detector (Fd.Detector) or \
            waive a genuine debug assertion with (* lint: oracle-ok *)"
           (lid_str lid))
  | _ -> ()

(* ------------------------------------------------------------------ R2 *)

let r2_hash_enums =
  [
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let r2_sorts =
  [ "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq" ]

(* Collect, within one top-level binding, every Hashtbl enumeration and
   whether any sort call occurs. Nested modules are split back into their
   own items so a sort in one function cannot excuse a fold in another. *)
let rec r2_check_item ctx (item : Parsetree.structure_item) =
  match item.pstr_desc with
  | Parsetree.Pstr_module mb -> r2_check_module ctx mb.Parsetree.pmb_expr
  | Parsetree.Pstr_recmodule mbs ->
      List.iter (fun mb -> r2_check_module ctx mb.Parsetree.pmb_expr) mbs
  | _ ->
      let enums = ref [] in
      let sorted = ref false in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun self e ->
              (match e.Parsetree.pexp_desc with
              | Parsetree.Pexp_ident { txt; loc } ->
                  let s = lid_str txt in
                  if List.mem s r2_hash_enums then enums := (s, loc) :: !enums;
                  if List.mem s r2_sorts then sorted := true
              | _ -> ());
              Ast_iterator.default_iterator.expr self e);
        }
      in
      it.structure_item it item;
      if not !sorted then
        List.iter
          (fun (s, loc) ->
            add ctx loc "R2"
              (Printf.sprintf
                 "%s enumerates in hash order and no List.sort dominates it \
                  in this binding; sort the result or waive with (* lint: \
                  hash-order-ok *)"
                 s))
          (List.rev !enums)

and r2_check_module ctx (me : Parsetree.module_expr) =
  match me.Parsetree.pmod_desc with
  | Parsetree.Pmod_structure items -> List.iter (r2_check_item ctx) items
  | Parsetree.Pmod_functor (_, body) -> r2_check_module ctx body
  | Parsetree.Pmod_constraint (me, _) -> r2_check_module ctx me
  | _ -> ()

(* ------------------------------------------------------------------ R3 *)

let r3_poly_cmp = [ "="; "<>"; "compare"; "Stdlib.compare"; "Stdlib.min";
                    "Stdlib.max"; "min"; "max" ]

(* Deny markers are syntactic: an argument subtree names the denied type in
   an annotation — [(x : Ivar.t)], [(l : Mvstore.item list)]. The rule
   cannot see through unannotated bindings; it is a tripwire for the
   declared cases, not a type checker. *)
let r3_mentions_denied config (e : Parsetree.expression) =
  let deny_tys = config.Config.deny_types in
  let ty_hits s =
    List.exists
      (fun ty ->
        s = ty
        || String.length s > String.length ty
           && String.sub s (String.length s - String.length ty - 1)
                (String.length ty + 1)
              = "." ^ ty)
      deny_tys
  in
  let hit = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      typ =
        (fun self ty ->
          (match ty.Parsetree.ptyp_desc with
          | Parsetree.Ptyp_constr ({ txt; _ }, _) ->
              if ty_hits (lid_str txt) then hit := true
          | _ -> ());
          Ast_iterator.default_iterator.typ self ty);
    }
  in
  it.expr it e;
  !hit

let r3_check ctx fn args loc =
  match fn.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } when List.mem (lid_str txt) r3_poly_cmp ->
      if
        List.exists (fun (_, arg) -> r3_mentions_denied ctx.config arg) args
      then
        add ctx loc "R3"
          (Printf.sprintf
             "polymorphic %s applied to a deny-listed type (contains \
              functions or mutable state); write a dedicated comparison or \
              waive with (* lint: compare-ok *)"
             (lid_str txt))
  | _ -> ()

(* ------------------------------------------------------------------ R4 *)

let r4_in_scope file =
  let pfx p =
    String.length file >= String.length p && String.sub file 0 (String.length p) = p
  in
  pfx "lib/core/" || pfx "lib/net/" || pfx "lib/repl/" || pfx "lib/shard/"

let r4_is_emit (fn : Parsetree.expression) =
  match fn.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> (
      match lid_str txt with
      | "tr" | "trl" -> true
      | s ->
          let suffix sfx =
            let n = String.length sfx in
            String.length s >= n
            && String.sub s (String.length s - n) n = sfx
          in
          suffix "Trace.emit" || suffix "Trace.emit_deferred")
  | _ -> false

(* Does [e] mention, anywhere, an identifier whose last segment is [seg]?
   The guard predicates for R4 ([tracing]) and R9 ([gc_floor]) — compound
   conditions ([a && tracing t], [Mvstore.gc_floor s < keep]) count. *)
let mentions_last seg (e : Parsetree.expression) =
  let hit = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; _ } -> (
              match List.rev (Longident.flatten txt) with
              | last :: _ when last = seg -> hit := true
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !hit

let mentions_tracing = mentions_last "tracing"

(* ------------------------------------------------------------------ R10 *)

(* Bounds-unchecked accesses and [Obj.magic] are a deliberate, measured
   optimization in the flat counter matrices and nowhere else; lint.config
   [allow R10] lines name the modules where the proofs live. *)
let r10_banned =
  [
    "Array.unsafe_get"; "Array.unsafe_set"; "String.unsafe_get";
    "String.unsafe_set"; "Bytes.unsafe_get"; "Bytes.unsafe_set"; "Obj.magic";
  ]

let r10_check ctx lid loc =
  let s = lid_str lid in
  if List.mem s r10_banned then
    add ctx loc "R10"
      (Printf.sprintf
         "%s: bounds-unchecked access outside the allowlisted hot-path \
          modules; use the checked accessor, allowlist the module in \
          lint.config, or waive with (* lint: unsafe-ok *)"
         s)

(* ------------------------------------------------------------------ R8 *)

(* The crash-consistency invariant PR 2's WAL re-drive depends on: a
   coordinator phase message must not leave before the phase entry is on
   disk, or a crash between send and append re-drives a phase the nodes
   already saw under a different WAL state. Phase constructors come from
   lint.config [phase-msg] lines; the dominator is any application of
   [Coord_log.append] — including through a local helper whose body
   contains one (see Order's documented "may" semantics). *)

let lid_suffix sfx s =
  let n = String.length sfx in
  s = sfx
  || String.length s > n
     && String.sub s (String.length s - n - 1) (n + 1) = "." ^ sfx

let is_send_like (fn : Parsetree.expression) =
  match fn.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> (
      match List.rev (Longident.flatten txt) with
      | ("send" | "broadcast") :: _ -> true
      | _ -> false)
  | _ -> false

let r8_target phase_msgs (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_apply (fn, args) when is_send_like fn ->
      List.find_map
        (fun ((_, arg) : Asttypes.arg_label * Parsetree.expression) ->
          match arg.Parsetree.pexp_desc with
          | Parsetree.Pexp_construct ({ txt; _ }, _) -> (
              match List.rev (Longident.flatten txt) with
              | c :: _ when List.mem c phase_msgs -> Some c
              | _ -> None)
          | _ -> None)
        args
  | _ -> None

let r8_check ctx (str : Parsetree.structure) =
  match ctx.config.Config.phase_msgs with
  | [] -> ()
  | phase_msgs ->
      List.iter
        (fun (f : Order.finding) ->
          add ctx f.Order.loc "R8"
            (Printf.sprintf
               "phase message %s sent without a dominating Coord_log.append: \
                a coordinator crash between this send and the WAL write \
                re-drives an unlogged phase; append the phase entry first \
                or waive with (* lint: order-ok *)"
               f.Order.what))
        (Order.undominated
           ~dom:(fun fn ->
             match fn.Parsetree.pexp_desc with
             | Parsetree.Pexp_ident { txt; _ } ->
                 lid_suffix "Coord_log.append" (Order.lid_str txt)
             | _ -> false)
           ~target:(r8_target phase_msgs)
           str)

(* ------------------------------------------------------------------ R9 *)

(* GC idempotence: a re-delivered [Do_gc] notice (recovered coordinator
   re-driving phase 4) must not re-collect; every [Mvstore.gc] call sits
   inside a region controlled by a [gc_floor] comparison. *)
let r9_in_scope file =
  String.length file >= 4 && String.sub file 0 4 = "lib/"

let r9_check ctx (str : Parsetree.structure) =
  if r9_in_scope ctx.file then
    List.iter
      (fun (f : Order.finding) ->
        add ctx f.Order.loc "R9" f.Order.what)
      (Order.unguarded
         ~guard:(mentions_last "gc_floor")
         ~target:(fun e ->
           match e.Parsetree.pexp_desc with
           | Parsetree.Pexp_apply (fn, _) -> (
               match fn.Parsetree.pexp_desc with
               | Parsetree.Pexp_ident { txt; _ }
                 when lid_suffix "Mvstore.gc" (Order.lid_str txt) ->
                   Some
                     "Mvstore.gc outside a gc_floor comparison: a \
                      re-delivered GC notice would re-collect (phase-4 \
                      re-drives must be idempotent); guard on the floor or \
                      waive with (* lint: guard-ok *)"
               | _ -> None)
           | _ -> None)
         str)

(* ------------------------------------------------------- R4 (dominance) *)

(* R4 rides the same guard-dominance engine as R9: an emission is fine
   exactly when a [tracing]-mentioning condition (or [when] clause)
   controls its lexical region. Reported as R4 — the rule id predates the
   engine. *)
let r4_check ctx (str : Parsetree.structure) =
  if r4_in_scope ctx.file then
    List.iter
      (fun (f : Order.finding) ->
        add ctx f.Order.loc "R4" f.Order.what)
      (Order.unguarded ~guard:mentions_tracing
         ~target:(fun e ->
           match e.Parsetree.pexp_desc with
           | Parsetree.Pexp_apply (fn, _) when r4_is_emit fn ->
               Some
                 "trace emission not guarded by [if tracing ...]: format \
                  arguments are evaluated even in untraced runs; guard it \
                  or waive with (* lint: trace-ok *)"
           | _ -> None)
         str)

(* -------------------------------------------------------- entry points *)

(* R1, R3, R6 and R10 are per-expression and share one walk; R2 runs per
   top-level item; R4, R8 and R9 are ordering properties delegated to the
   {!Order} engine. *)
let check_structure ctx (str : Parsetree.structure) =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; loc } ->
              r1_check ctx txt loc;
              r10_check ctx txt loc;
              if r6_in_scope ctx.file then r6_check ctx txt loc
          | Parsetree.Pexp_apply (fn, args) ->
              r3_check ctx fn args e.Parsetree.pexp_loc
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  List.iter (r2_check_item ctx) str;
  r4_check ctx str;
  r8_check ctx str;
  r9_check ctx str

(* ------------------------------------------------------------------ R5 *)

let has_doc (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) ->
      a.Parsetree.attr_name.Location.txt = "ocaml.doc")
    attrs

let rec mty_mentions_engine_intf (mty : Parsetree.module_type) =
  match mty.Parsetree.pmty_desc with
  | Parsetree.Pmty_ident { txt; _ } ->
      List.mem "Engine_intf" (Longident.flatten txt)
  | Parsetree.Pmty_with (mty, _) -> mty_mentions_engine_intf mty
  | _ -> false

let check_interface ctx (sg : Parsetree.signature) =
  List.iter
    (fun (item : Parsetree.signature_item) ->
      match item.Parsetree.psig_desc with
      | Parsetree.Psig_value vd ->
          if not (has_doc vd.Parsetree.pval_attributes) then
            add ctx item.Parsetree.psig_loc "R5"
              (Printf.sprintf "exported value '%s' has no doc comment"
                 vd.Parsetree.pval_name.Location.txt)
      | _ -> ())
    sg;
  if List.mem ctx.file ctx.config.Config.engines then begin
    let includes_intf =
      List.exists
        (fun (item : Parsetree.signature_item) ->
          match item.Parsetree.psig_desc with
          | Parsetree.Psig_include incl ->
              mty_mentions_engine_intf incl.Parsetree.pincl_mod
          | _ -> false)
        sg
    in
    if not includes_intf then
      add ctx Location.none "R5"
        "engine interface does not [include Engine_intf.S]"
  end

let missing_mli ~file =
  {
    Report.file;
    line = 1;
    col = 0;
    rule = "R5";
    msg = "module has no .mli interface";
  }
