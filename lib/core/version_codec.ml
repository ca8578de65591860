let codes = 3

let encode v =
  if v < 0 then invalid_arg "Version_codec.encode: negative version";
  v mod codes

let decode ~near code =
  if code < 0 || code >= codes then
    invalid_arg "Version_codec.decode: code out of range";
  (* Within {near-1, near, near+1} the three residues mod 3 are pairwise
     distinct, so at most one candidate matches. *)
  match
    List.find_opt
      (fun v -> v >= 0 && v mod codes = code)
      [ near - 1; near; near + 1 ]
  with
  | Some v -> v
  | None -> invalid_arg "Version_codec.decode: no candidate within distance 1"
