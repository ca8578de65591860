let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --------------------------------------------------------------- waivers *)

let waiver_tags =
  [
    ("nondet-ok", "R1");
    ("hash-order-ok", "R2");
    ("compare-ok", "R3");
    ("trace-ok", "R4");
    ("doc-ok", "R5");
    ("oracle-ok", "R6");
    ("flow-ok", "R7");
    ("order-ok", "R8");
    ("guard-ok", "R9");
    ("unsafe-ok", "R10");
    ("layout-ok", "R12");
  ]

(* Byte offsets at which each line starts; [line_of] is then a binary
   search instead of the per-marker O(n) rescan the first version did. *)
let line_starts source =
  let starts = ref [ 0 ] in
  String.iteri
    (fun i c -> if c = '\n' then starts := (i + 1) :: !starts)
    source;
  Array.of_list (List.rev !starts)

let line_of starts pos =
  let lo = ref 0 and hi = ref (Array.length starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if starts.(mid) <= pos then lo := mid else hi := mid - 1
  done;
  !lo + 1

(* A waiver is a comment of the form [(* lint: <tag> reason... *)]. It
   suppresses findings of the tagged rule from the marker's line through
   two lines past the comment's closing delimiter, so it can sit at the
   end of the offending line, just above a multi-line expression, or carry
   a multi-line justification.

   The scan is a small lexer, not a substring search: markers are only
   recognized inside comments, so ["lint: trace-ok"] inside a string
   literal (e.g. a test fixture or a help text) arms nothing. It tracks
   nested [(* *)] comments, double-quoted strings with escapes (both in
   code and inside comments, where OCaml's lexer also skips them),
   [{id|...|id}] quoted strings, and enough of char-literal syntax to keep
   ['"'] from desynchronizing the string tracking. *)
let waivers source =
  let len = String.length source in
  let starts = line_starts source in
  let out = ref [] in
  (* Markers seen inside the currently open outermost comment. *)
  let pending = ref [] in
  let tag_at after =
    let rest = String.trim (String.sub source after (min 80 (len - after))) in
    match String.index_opt rest ' ' with
    | Some j -> String.sub rest 0 j
    | None -> (
        match String.index_opt rest '*' with
        | Some j -> String.trim (String.sub rest 0 j)
        | None -> rest)
  in
  let flush_pending close =
    List.iter
      (fun at ->
        match List.assoc_opt (tag_at (at + 5)) waiver_tags with
        | Some rule -> out := (rule, line_of starts at, line_of starts close + 2) :: !out
        | None -> ())
      !pending;
    pending := []
  in
  (* Skip a double-quoted string starting at [i] (at the opening quote);
     returns the offset just past the closing quote. *)
  let skip_string i =
    let j = ref (i + 1) in
    let fin = ref false in
    while (not !fin) && !j < len do
      (match source.[!j] with
      | '\\' -> incr j
      | '"' -> fin := true
      | _ -> ());
      incr j
    done;
    !j
  in
  (* Skip a quoted-string literal [{id|...|id}] if one starts at [i];
     returns [None] when [i] is a plain brace. *)
  let skip_quoted i =
    let j = ref (i + 1) in
    while
      !j < len
      && (match source.[!j] with 'a' .. 'z' | '_' -> true | _ -> false)
    do
      incr j
    done;
    if !j < len && source.[!j] = '|' then begin
      let id = String.sub source (i + 1) (!j - i - 1) in
      let closing = "|" ^ id ^ "}" in
      let clen = String.length closing in
      let k = ref (!j + 1) in
      let fin = ref None in
      while !fin = None && !k + clen <= len do
        if String.sub source !k clen = closing then fin := Some (!k + clen)
        else incr k
      done;
      match !fin with Some e -> Some e | None -> Some len
    end
    else None
  in
  let i = ref 0 in
  let depth = ref 0 in
  while !i < len do
    let c = source.[!i] in
    if !depth > 0 then begin
      (* Inside a comment: watch for nesting, closing, strings, markers. *)
      if c = '(' && !i + 1 < len && source.[!i + 1] = '*' then begin
        incr depth;
        i := !i + 2
      end
      else if c = '*' && !i + 1 < len && source.[!i + 1] = ')' then begin
        decr depth;
        if !depth = 0 then flush_pending !i;
        i := !i + 2
      end
      else if c = '"' then i := skip_string !i
      else if
        c = 'l'
        && !i + 5 <= len
        && String.sub source !i 5 = "lint:"
      then begin
        pending := !i :: !pending;
        i := !i + 5
      end
      else incr i
    end
    else if c = '(' && !i + 1 < len && source.[!i + 1] = '*' then begin
      depth := 1;
      i := !i + 2
    end
    else if c = '"' then i := skip_string !i
    else if c = '{' then
      match skip_quoted !i with Some e -> i := e | None -> incr i
    else if c = '\'' then begin
      (* ['x'], ['\n'], ['\123'] are char literals; anything else (a type
         variable, a prime in an identifier) is just an apostrophe. *)
      if !i + 1 < len && source.[!i + 1] = '\\' then begin
        let j = ref (!i + 2) in
        while !j < len && source.[!j] <> '\'' && !j - !i < 6 do
          incr j
        done;
        i := if !j < len && source.[!j] = '\'' then !j + 1 else !i + 1
      end
      else if !i + 2 < len && source.[!i + 2] = '\'' then i := !i + 3
      else incr i
    end
    else incr i
  done;
  (* An unterminated comment still waives through end-of-file. *)
  if !pending <> [] then flush_pending (len - 1);
  !out

let waived_by ws (f : Report.finding) =
  List.exists
    (fun (rule, first, last) ->
      rule = f.Report.rule && f.Report.line >= first && f.Report.line <= last)
    ws

(* --------------------------------------------------------------- parsing *)

(* One file, parsed once: the per-file rules and the cross-file flowgraph
   pass share the tree. *)
type parsed = {
  p_file : string;
  p_source : string;
  p_impl : Parsetree.structure option;
  p_intf : Parsetree.signature option;
  p_syntax : Report.finding option;
}

let parse_one ~filename source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf filename;
  let fail exn =
    let msg =
      match exn with
      | Syntaxerr.Error _ -> "syntax error"
      | exn -> Printexc.to_string exn
    in
    {
      p_file = filename;
      p_source = source;
      p_impl = None;
      p_intf = None;
      p_syntax =
        Some { Report.file = filename; line = 1; col = 0; rule = "syntax"; msg };
    }
  in
  if Filename.check_suffix filename ".mli" then
    try
      {
        p_file = filename;
        p_source = source;
        p_impl = None;
        p_intf = Some (Parse.interface lexbuf);
        p_syntax = None;
      }
    with exn -> fail exn
  else
    try
      {
        p_file = filename;
        p_source = source;
        p_impl = Some (Parse.implementation lexbuf);
        p_intf = None;
        p_syntax = None;
      }
    with exn -> fail exn

(* ---------------------------------------------------------- the pipeline *)

(* Lint a set of already-read files as one run: per-file rules, then the
   cross-file flowgraph join, then per-file waiver and allowlist
   suppression (a cross-file finding is waivable in the file it is
   attributed to). [layout_only] files get R12 alone. Returns (kept,
   waived, allowlisted, parsed). *)
let lint_files ~config ?(layout_only = []) sources =
  let parsed = List.map (fun (f, s) -> parse_one ~filename:f s) sources in
  let per_file p =
    match p.p_syntax with
    | Some f -> [ f ]
    | None ->
        let ctx = Rules.make_ctx ~config ~file:p.p_file () in
        (match p.p_impl with
        | Some str -> Rules.check_structure ctx str
        | None -> ());
        (match p.p_intf with
        | Some sg -> Rules.check_interface ctx sg
        | None -> ());
        ctx.Rules.findings
  in
  let rule_findings = List.concat_map per_file parsed in
  let facts =
    List.filter_map
      (fun p -> Option.map (Flowgraph.extract ~file:p.p_file) p.p_impl)
      parsed
  in
  let flow_findings = Flowgraph.check ~config facts in
  let all_sources = sources @ layout_only in
  let layout_findings = List.concat_map (fun (f, s) -> Rules.layout ~file:f s) all_sources in
  let wtbl = Hashtbl.create 64 in
  List.iter (fun (f, s) -> Hashtbl.replace wtbl f (waivers s)) all_sources;
  let is_waived (f : Report.finding) =
    match Hashtbl.find_opt wtbl f.Report.file with
    | Some ws -> waived_by ws f
    | None -> false
  in
  let waived, rest =
    List.partition is_waived (rule_findings @ flow_findings @ layout_findings)
  in
  let allowlisted, kept =
    List.partition
      (fun (f : Report.finding) ->
        Config.allowed config ~rule:f.Report.rule ~file:f.Report.file)
      rest
  in
  (kept, List.length waived, List.length allowlisted, parsed)

(* The top-level types a parsed file declares, each with its constructors
   ([[]] unless it is a variant). *)
let top_types p =
  let decl (d : Parsetree.type_declaration) =
    let ctors =
      match d.Parsetree.ptype_kind with
      | Parsetree.Ptype_variant cds ->
          List.map (fun (cd : Parsetree.constructor_declaration) -> cd.Parsetree.pcd_name.txt) cds
      | _ -> []
    in
    (d.Parsetree.ptype_name.Location.txt, ctors)
  in
  (match p.p_impl with
  | Some str ->
      List.concat_map
        (fun (it : Parsetree.structure_item) ->
          match it.Parsetree.pstr_desc with
          | Parsetree.Pstr_type (_, decls) -> List.map decl decls
          | _ -> [])
        str
  | None -> [])
  @
  match p.p_intf with
  | Some sg ->
      List.concat_map
        (fun (it : Parsetree.signature_item) ->
          match it.Parsetree.psig_desc with
          | Parsetree.Psig_type (_, decls) -> List.map decl decls
          | _ -> [])
        sg
  | None -> []

(* Every [lint.config] line must resolve: a line that resolves to nothing
   would switch its check off without a word, so it is a finding of the
   rule that reads it, which no allowlist or waiver hides.
   - An [engine] or [protocol] path that names no scanned file (R5, R7),
     and a [protocol] type its file does not declare as a variant (R7),
     are attributed to that path.
   - An [allow] glob that matches none of [scanned] (every file the run
     read, [test/] included) is a finding of the rule it allows,
     attributed to the glob.
   - A [deny-type] [M.ty] where no scanned module [M] declares [ty] (R3),
     and a [phase-msg] constructor that no scanned variant declares (R8),
     are attributed to lint.config. *)
let unresolved_config ~(config : Config.t) ~scanned parsed =
  let finding ~file ~rule msg = { Report.file; line = 1; col = 0; rule; msg } in
  let missing rule what path =
    if List.exists (fun p -> p.p_file = path) parsed then None
    else
      Some
        (finding ~file:path ~rule
           (Printf.sprintf "lint.config names %s %s, but no such file is scanned" what path))
  in
  let protocol_type (path, ty) =
    match List.find_opt (fun p -> p.p_file = path) parsed with
    | None -> missing "R7" "protocol file" path
    | Some p ->
        let variant (name, ctors) = name = ty && match ctors with [] -> false | _ :: _ -> true in
        if List.exists variant (top_types p) then None
        else
          Some
            (finding ~file:path ~rule:"R7"
               (Printf.sprintf "lint.config names protocol type %s, but %s declares no such variant"
                  ty path))
  in
  let allow (a : Config.allow) =
    if List.exists (Config.glob_match a.Config.a_glob) scanned then None
    else
      Some
        (finding ~file:a.Config.a_glob ~rule:a.Config.a_rule
           (Printf.sprintf "lint.config allows %s at %s, but no scanned file matches"
              a.Config.a_rule a.Config.a_glob))
  in
  let deny_type name =
    let ty, owner =
      match List.rev (String.split_on_char '.' name) with
      | ty :: m :: _ -> (ty, Some m)
      | _ -> (name, None)
    in
    let module_of file =
      String.capitalize_ascii (Filename.remove_extension (Filename.basename file))
    in
    let declares p =
      (match owner with Some m -> module_of p.p_file = m | None -> true)
      && List.mem_assoc ty (top_types p)
    in
    if List.exists declares parsed then None
    else
      Some
        (finding ~file:"lint.config" ~rule:"R3"
           (Printf.sprintf "lint.config denies type %s, but no scanned module declares it" name))
  in
  let phase_msg ctor =
    let declares p = List.exists (fun (_, ctors) -> List.mem ctor ctors) (top_types p) in
    if List.exists declares parsed then None
    else
      Some
        (finding ~file:"lint.config" ~rule:"R8"
           (Printf.sprintf
              "lint.config names phase message %s, but no scanned variant declares it" ctor))
  in
  List.filter_map (missing "R5" "engine interface") config.Config.engines
  @ List.filter_map protocol_type config.Config.protocols
  @ List.filter_map allow config.Config.allows
  @ List.filter_map deny_type config.Config.deny_types
  @ List.filter_map phase_msg config.Config.phase_msgs

let lint_source ?(config = Config.empty) ~filename source =
  let kept, waived, allowlisted, _ = lint_files ~config [ (filename, source) ] in
  (kept, waived, allowlisted)

let lint_string ?config ~filename source =
  let kept, _, _ = lint_source ?config ~filename source in
  List.sort Report.compare_finding kept

let run_sources ?(config = Config.empty) sources =
  let kept, waived, allowlisted, parsed = lint_files ~config sources in
  Report.make
    ~findings:(kept @ unresolved_config ~config ~scanned:(List.map fst sources) parsed)
    ~files_scanned:(List.length sources) ~waived ~allowlisted

(* ------------------------------------------------------------- tree walk *)

let source_dirs = [ "lib"; "bin" ]

(* R12 alone reads these too. *)
let layout_dirs = [ "test" ]

let walk_dirs root dirs =
  let files = ref [] in
  let rec go rel =
    let abs = Filename.concat root rel in
    if Sys.file_exists abs && Sys.is_directory abs then
      Array.iter
        (fun entry ->
          if String.length entry > 0 && entry.[0] <> '.' && entry <> "_build"
          then begin
            let rel' = if rel = "" then entry else rel ^ "/" ^ entry in
            let abs' = Filename.concat root rel' in
            if Sys.is_directory abs' then go rel'
            else if
              Filename.check_suffix entry ".ml"
              || Filename.check_suffix entry ".mli"
            then files := rel' :: !files
          end)
        (Sys.readdir abs)
  in
  List.iter go dirs;
  List.sort String.compare !files

let walk root = walk_dirs root source_dirs

let is_lib_ml file =
  Filename.check_suffix file ".ml"
  && String.length file > 4
  && String.sub file 0 4 = "lib/"

let run ?(config_path = "lint.config") ?rule ~root () =
  let config =
    Config.load
      (if Filename.is_relative config_path then
         Filename.concat root config_path
       else config_path)
  in
  (* The runtest gate scans dune's copy of the tree, where executables
     grow an auto-generated empty [.mli]; skip those so a sandboxed run
     sees the same file set as a checkout run (the staleness leg compares
     the two). *)
  let dune_stub = "(* Auto-generated by Dune *)" in
  let read files =
    List.filter_map
      (fun f ->
        let s = read_file (Filename.concat root f) in
        if
          String.length s >= String.length dune_stub
          && String.sub s 0 (String.length dune_stub) = dune_stub
        then None
        else Some (f, s))
      files
  in
  let sources = read (walk root) and layout_only = read (walk_dirs root layout_dirs) in
  let files = List.map fst sources in
  let scanned = files @ List.map fst layout_only in
  let kept, waived, allowlisted, parsed = lint_files ~config ~layout_only sources in
  let findings = ref (kept @ unresolved_config ~config ~scanned parsed) in
  let waived = ref waived in
  let allowlisted = ref allowlisted in
  (* R5: every lib/** implementation needs a sibling interface. *)
  let file_set = List.sort_uniq String.compare files in
  List.iter
    (fun file ->
      if is_lib_ml file && not (List.mem (file ^ "i") file_set) then begin
        let f = Rules.missing_mli ~file in
        if Config.allowed config ~rule:"R5" ~file then incr allowlisted
        else findings := f :: !findings
      end)
    files;
  let findings =
    match rule with
    | None -> !findings
    | Some r -> List.filter (fun f -> f.Report.rule = r) !findings
  in
  Report.make ~findings ~files_scanned:(List.length scanned) ~waived:!waived
    ~allowlisted:!allowlisted
