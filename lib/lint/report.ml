type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
}

type t = {
  findings : finding list;
  files_scanned : int;
  waived : int;
  allowlisted : int;
}

let schema_version = "lint/v2"

let rule_ids =
  [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7"; "R8"; "R9"; "R10"; "R12"; "syntax" ]

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.msg b.msg

let make ~findings ~files_scanned ~waived ~allowlisted =
  { findings = List.sort compare_finding findings; files_scanned; waived;
    allowlisted }

let total t = List.length t.findings

let counts t =
  let count r = List.length (List.filter (fun f -> f.rule = r) t.findings) in
  let named = List.map (fun r -> (r, count r)) rule_ids in
  (* Any finding carrying a rule id outside the catalog still must be
     counted, or the per-rule counts would not sum to [total]. *)
  let extra =
    List.filter (fun f -> not (List.mem f.rule rule_ids)) t.findings
  in
  let extra_ids = List.sort_uniq String.compare (List.map (fun f -> f.rule) extra) in
  named @ List.map (fun r -> (r, count r)) extra_ids

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d %s %s" f.file f.line f.col f.rule f.msg

let render_human ppf t =
  List.iter (fun f -> Format.fprintf ppf "%a@." pp_finding f) t.findings;
  Format.fprintf ppf
    "lint: %d finding%s in %d files (%d waived, %d allowlisted)@." (total t)
    (if total t = 1 then "" else "s")
    t.files_scanned t.waived t.allowlisted

(* ----------------------------------------------------------------- JSON *)

(* Minimal JSON value type with a printer and a parser, covering exactly
   what the lint/v1 report needs (null/bool/int/string/list/object). The
   parser exists so tests can assert the report round-trips. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | String of string
  | List of json list
  | Obj of (string * json) list

let escape_string s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec print_json buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape_string s);
      Buffer.add_char buf '"'
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          print_json buf v)
        l;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          print_json buf (String k);
          Buffer.add_char buf ':';
          print_json buf v)
        kvs;
      Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 1024 in
  print_json buf j;
  Buffer.contents buf

exception Parse_error of string

let json_of_string s =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
          | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
          | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > len then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code = int_of_string ("0x" ^ hex) in
              (* Report strings only escape control chars, which fit a
                 single byte. *)
              Buffer.add_char buf (Char.chr (code land 0xff));
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); List [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else
          let rec items acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          items []
    | Some ('-' | '0' .. '9') ->
        let start = !pos in
        if peek () = Some '-' then advance ();
        let rec digits () =
          match peek () with
          | Some '0' .. '9' ->
              advance ();
              digits ()
          | _ -> ()
        in
        digits ();
        Int (int_of_string (String.sub s start (!pos - start)))
    | Some c -> fail (Printf.sprintf "unexpected %c" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let to_json t =
  let finding_obj f =
    Obj
      [
        ("file", String f.file);
        ("line", Int f.line);
        ("col", Int f.col);
        ("rule", String f.rule);
        ("msg", String f.msg);
      ]
  in
  json_to_string
    (Obj
       [
         ("schema", String schema_version);
         ("files_scanned", Int t.files_scanned);
         ("total", Int (total t));
         ("waived", Int t.waived);
         ("allowlisted", Int t.allowlisted);
         ("counts", Obj (List.map (fun (r, n) -> (r, Int n)) (counts t)));
         ("findings", List (List.map finding_obj t.findings));
       ])

(* Reading a report back. Shape errors reuse [Parse_error] so callers have
   one failure mode for "this is not a lint report". The [total]/[counts]
   fields are derived data and are recomputed by [make], not trusted. *)

let field k = function
  | Obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> raise (Parse_error (Printf.sprintf "missing field %S" k)))
  | _ -> raise (Parse_error "expected an object")

let as_int k = function
  | Int i -> i
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected an int" k))

let as_string k = function
  | String s -> s
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected a string" k))

let finding_of_json j =
  {
    file = as_string "file" (field "file" j);
    line = as_int "line" (field "line" j);
    col = as_int "col" (field "col" j);
    rule = as_string "rule" (field "rule" j);
    msg = as_string "msg" (field "msg" j);
  }

let of_json s =
  let j = json_of_string s in
  (match field "schema" j with
  | String ("lint/v1" | "lint/v2") -> ()
  | String other ->
      raise (Parse_error (Printf.sprintf "unknown report schema %S" other))
  | _ -> raise (Parse_error "field \"schema\": expected a string"));
  let findings =
    match field "findings" j with
    | List l -> List.map finding_of_json l
    | _ -> raise (Parse_error "field \"findings\": expected a list")
  in
  make ~findings
    ~files_scanned:(as_int "files_scanned" (field "files_scanned" j))
    ~waived:(as_int "waived" (field "waived" j))
    ~allowlisted:(as_int "allowlisted" (field "allowlisted" j))

(* ------------------------------------------------------------- baseline *)

(* The ratchet: a finding is "new" when the baseline holds no unconsumed
   finding with the same (file, rule, msg). Lines are deliberately not part
   of the key — editing an unrelated part of a file shifts every finding
   below the edit, and the gate must not fire on pure line drift. Matching
   is per-occurrence (a multiset), so adding a second copy of a baselined
   finding still counts as new. *)
let diff ~baseline current =
  let key (f : finding) = (f.file, f.rule, f.msg) in
  let remaining = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let k = key f in
      let n = match Hashtbl.find_opt remaining k with Some n -> n | None -> 0 in
      Hashtbl.replace remaining k (n + 1))
    baseline;
  List.filter
    (fun f ->
      let k = key f in
      match Hashtbl.find_opt remaining k with
      | Some n when n > 0 ->
          Hashtbl.replace remaining k (n - 1);
          false
      | _ -> true)
    current
