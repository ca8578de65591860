(* The indexed checkers against the reference oracles (checker_oracle.ml):
   every report, witnesses and capped example lists included, must be
   structurally equal on random hand-built histories and on the real
   histories of a fixed-seed fuzz sweep, whose anomaly-seeded baselines
   produce genuine MVSG cycles. *)

module Spec = Txn.Spec
module Op = Txn.Op
module Key = Store.Key
module Value = Txn.Value
module Result = Txn.Result
module Oracle = Checker_oracle

type history = (Spec.t * Result.t) list

(* The first checker whose report differs from its oracle's, if any. *)
let mismatch ?shard_of_node ?vector (history : history) =
  let checks =
    [
      ( "certify",
        fun () ->
          Checker.Serializability.certify history
          = Oracle.Serializability.certify history );
      ( "certify (sharded)",
        fun () ->
          Checker.Serializability.certify ?shard_of_node history
          = Oracle.Serializability.certify ?shard_of_node history );
      ( "atomicity",
        fun () ->
          Checker.Atomicity.check history = Oracle.Atomicity.check history );
      ( "version reads",
        fun () ->
          Checker.Version_reads.check history
          = Oracle.Version_reads.check history );
      ( "version reads (vectored)",
        fun () ->
          Checker.Version_reads.check ?vector ?shard_of_node history
          = Oracle.Version_reads.check ?vector ?shard_of_node history );
      ( "staleness",
        fun () ->
          Checker.Staleness.measure history = Oracle.Staleness.measure history
      );
    ]
  in
  List.find_map (fun (name, same) -> if same () then None else Some name) checks

(* The history's order cannot change a certificate: [certify (List.rev
   h)] must equal [certify h] but for the order of [unknown_tags], and,
   past its cap, for which tags it keeps. A history whose ids ascend is
   indexed in its own order and its reversal through a sort, so both paths
   meet the same histories, cycles included. *)
let order_free ?shard_of_node (history : history) =
  let certify h = Checker.Serializability.certify ?shard_of_node h in
  let a = certify history and b = certify (List.rev history) in
  let kept (r : Checker.Serializability.report) =
    if r.unknown_count > 20 then [] else List.sort compare r.unknown_tags
  in
  { a with Checker.Serializability.unknown_tags = kept a }
  = { b with Checker.Serializability.unknown_tags = kept b }
  && List.length a.unknown_tags = List.length b.unknown_tags

(* ------------------------------------------------- random histories *)

let nodes = 5
let shard_of_node node = node / 2

(* Fresh names for a case's four keys: a random letter each, so name order
   is random, then the case number, which no earlier case used. The case
   interns them in a random order before it builds anything, so its key
   ids are new and bear no relation to the names' order: a checker output
   that depended on ids would differ from its oracle's, which knows keys
   by name only. *)
let fresh_case = ref 0

let fresh_keys st =
  incr fresh_case;
  let names =
    Array.init 4 (fun i ->
        Printf.sprintf "%c%d.%d" (Char.chr (97 + Random.State.int st 26)) !fresh_case i)
  in
  let order = Array.init 4 Fun.id in
  for i = 3 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let keys = Array.make 4 (Key.intern names.(order.(0))) in
  Array.iter (fun i -> keys.(i) <- Key.intern names.(i)) order;
  keys

(* A history of up to 14 transactions over up to four keys and five nodes
   (shards of two nodes; node 4 is the odd one out, a shard no two-entry
   read vector covers). Ids are distinct but shuffled against history
   order. Transactions are read-only, commuting, overwriting or
   read-write; a read may look at one key twice. Outcomes are committed,
   compensated or truly aborted, and every observed value carries a random
   subset of its key's writers (aborted ones included: dirty reads), now
   and then the reader's own id, an id no transaction has, or any
   transaction's id, written key or not. *)
let gen_case st =
  let keys = fresh_keys st in
  let int n = Random.State.int st n in
  let ntx = 1 + int 14 in
  let nkeys = 1 + int (Array.length keys) in
  let key () = keys.(int nkeys) in
  let ids = Array.init ntx (fun i -> (3 * i) + int 3) in
  for i = ntx - 1 downto 1 do
    let j = int (i + 1) in
    let t = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- t
  done;
  let op () =
    match int 4 with
    | 0 -> Op.Incr (key (), 1.)
    | 1 -> Op.Append (key (), "x")
    | 2 -> Op.Overwrite (key (), 2.)
    | _ -> Op.Read (key ())
  in
  let ops () =
    match int 5 with
    | 0 ->
        let k = key () in
        [ Op.Read k; Op.Read k ]
    | 1 -> List.init (1 + int 3) (fun _ -> Op.Read (key ()))
    | 2 -> List.init (1 + int 3) (fun _ -> Op.Incr (key (), 1.))
    | _ -> List.init (1 + int 4) (fun _ -> op ())
  in
  let tree ops =
    let children = Array.init (int 3) (fun _ -> (int nodes, ref [])) in
    let root = ref [] in
    List.iter
      (fun o ->
        let slot = int (Array.length children + 1) in
        if slot = 0 then root := o :: !root
        else
          let _, l = children.(slot - 1) in
          l := o :: !l)
      ops;
    Spec.subtxn
      ~children:
        (Array.to_list
           (Array.map (fun (n, l) -> Spec.subtxn n (List.rev !l)) children))
      (int nodes) (List.rev !root)
  in
  let specs = Array.map (fun id -> Spec.make ~id (tree (ops ()))) ids in
  let writes_key k (spec : Spec.t) =
    List.exists (String.equal (Key.name k)) (Spec.keys_written spec)
  in
  let value_for ~self k =
    let tags =
      Array.fold_left
        (fun acc (spec : Spec.t) ->
          if writes_key k spec && int 3 > 0 then spec.Spec.id :: acc else acc)
        [] specs
    in
    let tags = if int 8 = 0 then self :: tags else tags in
    let tags = if int 8 = 0 then (1000 + int 3) :: tags else tags in
    let tags = if int 8 = 0 then ids.(int ntx) :: tags else tags in
    List.fold_left
      (fun v txn -> Value.incr ~txn ~delta:1. v)
      Value.empty tags
  in
  let rec reads_of (st : Spec.subtxn) ~self =
    List.filter_map
      (function Op.Read k -> Some (k, value_for ~self k) | _ -> None)
      st.Spec.ops
    @ List.concat_map (reads_of ~self) st.Spec.children
  in
  let history =
    Array.to_list
      (Array.map
         (fun (spec : Spec.t) ->
           let submit = float_of_int (int 5) in
           ( spec,
             {
               Result.txn_id = spec.Spec.id;
               outcome =
                 (match int 6 with
                 | 0 -> Result.Aborted "compensated"
                 | 1 -> Result.Aborted "deadlock"
                 | _ -> Result.Committed);
               version = int 4;
               served_by = spec.Spec.root.Spec.node;
               reads = reads_of spec.Spec.root ~self:spec.Spec.id;
               submit_time = submit;
               root_commit_time = submit;
               complete_time = submit +. float_of_int (int 3);
             } ))
         specs)
  in
  let vectors =
    Array.to_list ids
    |> List.filter_map (fun id ->
           if int 2 = 0 then Some (id, [| int 4 - 1; int 4 - 1 |]) else None)
  in
  (history, vectors)

let print_case ((history : history), vectors) =
  let pp_entry ((spec : Spec.t), (res : Result.t)) =
    Format.asprintf "%a %a v%d reads=[%s]" Spec.pp spec Result.pp_outcome
      res.Result.outcome res.Result.version
      (String.concat "; "
         (List.map
            (fun (k, (v : Value.t)) ->
              Printf.sprintf "%s:{%s}" (Key.name k)
                (String.concat ","
                   (List.map string_of_int
                      (Value.Writers.elements v.Value.writers))))
            res.Result.reads))
  in
  String.concat "\n" (List.map pp_entry history)
  ^ Printf.sprintf "\nvectors for %s"
      (String.concat "," (List.map (fun (id, _) -> string_of_int id) vectors))

let random_histories_agree =
  QCheck.Test.make ~name:"indexed checkers equal their oracles" ~count:2000
    (QCheck.make ~print:print_case gen_case)
    (fun (history, vectors) ->
      let vector id = List.assoc_opt id vectors in
      (match mismatch ~shard_of_node ~vector history with
      | None -> ()
      | Some name -> QCheck.Test.fail_reportf "%s differs" name);
      if not (order_free history && order_free ~shard_of_node history) then
        QCheck.Test.fail_reportf "certify differs on the reversed history";
      true)

(* A version-order edge shared by two keys names the smaller key, in
   either op order: t1 and t2 overwrite both keys at versions 1 and 2, and
   a reader seeing t2 but not t1 on [k1] closes the cycle
   t1 -ww-> t2 -rf-> r -rw-> t1. Random histories rarely put such an edge
   in a witness, so every ordering of a few key pairs is tried here. *)
let ww_witness_keys_agree () =
  let pairs = [ ("a", "b"); ("k1", "k2"); ("x", "y"); ("acct-3", "acct-12") ] in
  List.iter
    (fun (k1, k2) ->
      List.iter
        (fun (first, second) ->
          let writer id =
            Spec.make ~id
              (Spec.subtxn 0
                 [ Op.Overwrite (Key.intern first, 1.); Op.Overwrite (Key.intern second, 1.) ])
          in
          let result ~id ~version reads =
            {
              Result.txn_id = id;
              outcome = Result.Committed;
              version;
              served_by = 0;
              reads;
              submit_time = 0.;
              root_commit_time = 0.;
              complete_time = 1.;
            }
          in
          let history =
            [
              (writer 1, result ~id:1 ~version:1 []);
              (writer 2, result ~id:2 ~version:2 []);
              ( Spec.make ~id:3 (Spec.subtxn 0 [ Op.Read (Key.intern k1) ]),
                result ~id:3 ~version:2
                  [ (Key.intern k1, Value.incr ~txn:2 ~delta:1. Value.empty) ] );
            ]
          in
          let oracle = Oracle.Serializability.certify history in
          let ww_keys =
            List.filter_map
              (fun (e : Checker.Serializability.edge) ->
                if e.kind = Checker.Serializability.Version_order then
                  Some e.key
                else None)
              (Option.value ~default:[] oracle.Checker.Serializability.cycle)
          in
          Alcotest.(check (list string))
            (Printf.sprintf "ww edge names the smaller of %s, %s" first second)
            [ min k1 k2 ] ww_keys;
          Alcotest.(check bool)
            (Printf.sprintf "witness for %s, %s" first second)
            true
            (Checker.Serializability.certify history = oracle))
        [ (k1, k2); (k2, k1) ])
    pairs

(* The certifier keeps its edge codes in chunks of 2^16 ints. Random and
   fuzz histories stay inside one chunk, so this one is built big: 300
   commuting writers of one key and 601 readers of it, one edge per reader
   and writer (180,300 edges, three chunks), padded with idle read-only
   transactions, ids first, which are no graph nodes, so that every edge
   joins two dense indices above 2^15 and the buffer's codes pass 32 bits.
   Reader [i] sees a prefix of the writers, which orders them; the last
   reader sees writer 2 alone, which closes a short cycle through writer 1
   and the first reader, who sees writer 1 alone. [writer w] and [reader
   i] are their ids. *)
let chunked_writers = 300
let chunked_readers = 601
let chunked_idle = 32_200
let writer w = chunked_idle + w
let reader i = chunked_idle + chunked_writers + 1 + i

let chunked_history () =
  let key = Key.intern "hot-chunked" in
  let result ~id reads =
    {
      Result.txn_id = id;
      outcome = Result.Committed;
      version = 1;
      served_by = 0;
      reads;
      submit_time = 0.;
      root_commit_time = 0.;
      complete_time = 1.;
    }
  in
  let sees ws =
    List.fold_left (fun v txn -> Value.incr ~txn ~delta:1. v) Value.empty ws
  in
  let read id value = (Spec.make ~id (Spec.subtxn 0 [ Op.Read key ]), result ~id value) in
  let st = Random.State.make [| 7 |] in
  let seen i =
    if i = 0 then [ 1 ]
    else if i = chunked_readers - 1 then [ 2 ]
    else List.init (Random.State.int st (chunked_writers + 1)) (fun w -> w + 1)
  in
  List.init chunked_idle (fun i -> read (i + 1) [])
  @ List.init chunked_writers (fun w ->
        let id = writer (w + 1) in
        (Spec.make ~id (Spec.subtxn 0 [ Op.Incr (key, 1.) ]), result ~id []))
  @ List.init chunked_readers (fun i ->
        read (reader i) [ (key, sees (List.map writer (seen i))) ])

let chunked_edges_agree () =
  let history = chunked_history () in
  let report = Checker.Serializability.certify history in
  Alcotest.(check int) "edges" (chunked_writers * chunked_readers)
    report.Checker.Serializability.edges;
  Alcotest.(check (option (list (pair int int))))
    "the short cycle"
    (Some
       [
         (writer 1, reader 0);
         (reader 0, writer 2);
         (writer 2, reader (chunked_readers - 1));
         (reader (chunked_readers - 1), writer 1);
       ])
    (Option.map
       (List.map (fun (e : Checker.Serializability.edge) -> (e.src, e.dst)))
       report.Checker.Serializability.cycle);
  Alcotest.(check bool) "equals the oracle" true
    (report = Oracle.Serializability.certify history)

(* Words [f ()] allocates, minor and major heaps together. The minor heap
   is emptied first: promoting a block made before the call would count
   its header. *)
let allocated f =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  Gc.minor ();
  let before = words () in
  let r = f () in
  (r, words () -. before)

(* Certify holds its edge codes once: at most 1.3 words per code, the
   chunks' rounding included, plus 20 words per transaction, for the 17
   that its per-transaction arrays take (the index's ids and entries,
   out-degrees, row starts, node flags, Tarjan's five arrays, twice over
   a cyclic graph, and the witness search's two). Holding the codes twice,
   as a sort's scratch copy does, takes over 2 words per code. *)
let certify_allocation () =
  let history = chunked_history () in
  let n = List.length history in
  let report, words = allocated (fun () -> Checker.Serializability.certify history) in
  let codes = report.Checker.Serializability.edges in
  let bound = (1.3 *. float_of_int codes) +. (20. *. float_of_int n) in
  if words > bound then
    Alcotest.failf "certify allocated %.0f words for %d codes and %d transactions (bound %.0f)"
      words codes n bound

(* An ascending history is indexed in its own order: [build] allocates the
   arrays it keeps, two arrays of at most one int per key for counting,
   and a few closures, so nothing more per transaction or per write. 4,000
   transactions over 32 keys: every fourth reads two keys, and every other
   writes four, one of them twice (an overwrite in a child), so an update
   counts once per key. *)
let index_allocation () =
  let keys = Array.init 32 (fun i -> Key.intern (Printf.sprintf "index-alloc-%d" i)) in
  let history =
    List.init 4000 (fun i ->
        let id = i + 1 and key j = keys.(((7 * i) + (5 * j)) mod 32) in
        let spec =
          if i mod 4 = 0 then Spec.make ~id (Spec.subtxn 0 [ Op.Read (key 0); Op.Read (key 1) ])
          else
            Spec.make ~id
              (Spec.subtxn 0
                 ~children:[ Spec.subtxn 1 [ Op.Overwrite (key 0, 1.) ] ]
                 (List.init 4 (fun j -> Op.Incr (key j, 1.))))
        in
        ( spec,
          {
            Result.txn_id = id;
            outcome = Result.Committed;
            version = 1;
            served_by = 0;
            reads = [];
            submit_time = 0.;
            root_commit_time = 0.;
            complete_time = 1.;
          } ))
  in
  let idx, words = allocated (fun () -> Checker.History_index.build history) in
  let kept a = Array.length a + 1 in
  let slots = kept idx.Checker.History_index.slot_of in
  let bound =
    kept idx.ids + kept idx.txns + slots + kept idx.starts + kept idx.w_id + kept idx.w_dense
    + kept idx.w_overwrote + (2 * slots) + 256
  in
  Alcotest.(check int) "writer entries" (3000 * 4) (Array.length idx.w_id);
  if words > float_of_int bound then
    Alcotest.failf "build allocated %.0f words where it keeps %d (bound %d)" words
      (bound - (2 * slots) - 256)
      bound

(* -------------------------------------------------- fuzz histories *)

let fuzz_histories_agree () =
  let cycles = ref 0 in
  for index = 0 to 15 do
    let case = Harness.Fuzz.case_of_index ~fuzz_seed:1 ~quick:true index in
    let history, shard_of_node, vector = Harness.Fuzz.history case in
    (match mismatch ?shard_of_node ?vector history with
    | None -> ()
    | Some name -> Alcotest.failf "fuzz case %d: %s differs" index name);
    if not (order_free ?shard_of_node history) then
      Alcotest.failf "fuzz case %d: certify differs on the reversed history" index;
    if (Oracle.Serializability.certify history).Checker.Serializability.cycle
       <> None
    then incr cycles
  done;
  Alcotest.(check bool) "some baseline case has a real cycle" true (!cycles > 0)

let () =
  Alcotest.run "checker-equiv"
    [
      ( "oracles",
        [
          QCheck_alcotest.to_alcotest random_histories_agree;
          Alcotest.test_case "version-order witness keys" `Quick
            ww_witness_keys_agree;
          Alcotest.test_case "fuzz sweep histories" `Quick fuzz_histories_agree;
          Alcotest.test_case "certify across edge chunks" `Quick chunked_edges_agree;
          Alcotest.test_case "certify holds its codes once" `Quick certify_allocation;
          Alcotest.test_case "index allocates what it keeps" `Quick index_allocation;
        ] );
    ]
