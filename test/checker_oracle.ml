(* Reference oracles: the offline checkers as they were before the shared
   history index, kept verbatim as the specification the indexed checkers
   are compared against (test_checker_equiv.ml). Each report type is the
   library's own, so reports compare structurally with [=]. Not built for
   speed: every read observation walks every writer of its key. *)


module Serializability = struct
module Spec = Txn.Spec
module Result = Txn.Result
module Value = Txn.Value
module Op = Txn.Op

type edge_kind = Checker.Serializability.edge_kind = Reads_from | Anti_dependency | Version_order

type edge = Checker.Serializability.edge = { src : int; dst : int; key : string; kind : edge_kind }

type report = Checker.Serializability.report = {
  txns : int;
  readers : int;
  writers : int;
  edges : int;
  rf_edges : int;
  anti_edges : int;
  ww_edges : int;
  unknown_count : int;
  unknown_tags : (int * string * int) list;
  cycle : edge list option;
}

module Int_set = Set.Make (Int)

let has_effect (res : Result.t) =
  match res.Result.outcome with
  | Result.Committed -> true
  | Result.Aborted "compensated" -> true
  | Result.Aborted _ -> false

(* Per-key write classification of a spec: key -> wrote_overwrite. A key
   counts as overwritten if any operation on it anywhere in the tree is an
   [Overwrite]. *)
let write_kinds (spec : Spec.t) =
  let tbl = Hashtbl.create 8 in
  let rec walk (st : Spec.subtxn) =
    List.iter
      (fun op ->
        if Op.is_write op then begin
          let key = Op.key op in
          let prev =
            match Hashtbl.find_opt tbl key with Some b -> b | None -> false
          in
          Hashtbl.replace tbl key (prev || not (Op.commuting_write op))
        end)
      st.Spec.ops;
    List.iter walk st.Spec.children
  in
  walk spec.Spec.root;
  tbl

(* ------------------------------------------------------------ graph *)

type graph = {
  (* adjacency, deduplicated: src -> dst set *)
  adj : (int, Int_set.t ref) Hashtbl.t;
  (* representative edge per (src, dst, kind): the first inserted, but a
     version-order edge keeps the smallest key that yields it *)
  edge_tbl : (int * int * edge_kind, edge) Hashtbl.t;
  mutable rf : int;
  mutable anti : int;
  mutable ww : int;
}

let add_edge g ~src ~dst ~key ~kind =
  match Hashtbl.find_opt g.edge_tbl (src, dst, kind) with
  | Some e ->
      if kind = Version_order && String.compare key e.key < 0 then
        Hashtbl.replace g.edge_tbl (src, dst, kind) { e with key }
  | None when src <> dst ->
      Hashtbl.replace g.edge_tbl (src, dst, kind) { src; dst; key; kind };
      (match kind with
      | Reads_from -> g.rf <- g.rf + 1
      | Anti_dependency -> g.anti <- g.anti + 1
      | Version_order -> g.ww <- g.ww + 1);
      let set =
        match Hashtbl.find_opt g.adj src with
        | Some s -> s
        | None ->
            let s = ref Int_set.empty in
            Hashtbl.replace g.adj src s;
            s
      in
      set := Int_set.add dst !set
  | None -> ()

let succs g v =
  match Hashtbl.find_opt g.adj v with
  | Some s -> Int_set.elements !s
  | None -> []

(* An edge src -> dst of any kind, preferring reads-from for readability of
   witnesses. *)
let edge_between g src dst =
  match Hashtbl.find_opt g.edge_tbl (src, dst, Reads_from) with
  | Some e -> Some e
  | None -> (
      match Hashtbl.find_opt g.edge_tbl (src, dst, Anti_dependency) with
      | Some e -> Some e
      | None -> Hashtbl.find_opt g.edge_tbl (src, dst, Version_order))

(* ----------------------------------------------------- cycle search *)

(* Iterative Tarjan: strongly-connected components of the nodes reachable
   in [g], starting from every node in [nodes]. *)
let sccs g nodes =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let push v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ()
  in
  let visit root =
    if not (Hashtbl.mem index root) then begin
      let call = Stack.create () in
      push root;
      Stack.push (root, ref (succs g root)) call;
      while not (Stack.is_empty call) do
        let v, rest = Stack.top call in
        match !rest with
        | w :: tl ->
            rest := tl;
            if not (Hashtbl.mem index w) then begin
              push w;
              Stack.push (w, ref (succs g w)) call
            end
            else if Hashtbl.mem on_stack w then
              Hashtbl.replace lowlink v
                (min (Hashtbl.find lowlink v) (Hashtbl.find index w))
        | [] ->
            ignore (Stack.pop call);
            if Hashtbl.find lowlink v = Hashtbl.find index v then begin
              let rec pop acc =
                match !stack with
                | w :: tl ->
                    stack := tl;
                    Hashtbl.remove on_stack w;
                    if w = v then w :: acc else pop (w :: acc)
                | [] -> acc
              in
              out := pop [] :: !out
            end;
            (match Stack.top_opt call with
            | Some (parent, _) ->
                Hashtbl.replace lowlink parent
                  (min (Hashtbl.find lowlink parent) (Hashtbl.find lowlink v))
            | None -> ())
      done
    end
  in
  List.iter visit nodes;
  !out

(* Shortest cycle through [start] staying inside [members]: BFS until an
   edge closes back on [start]. Returns the node sequence of the cycle. *)
let shortest_cycle_through g members start =
  let parent = Hashtbl.create 16 in
  let q = Queue.create () in
  Queue.add start q;
  Hashtbl.replace parent start start;
  let found = ref None in
  (try
     while not (Queue.is_empty q) do
       let u = Queue.pop q in
       List.iter
         (fun w ->
           if w = start then begin
             (* Reconstruct start ... u, then close with u -> start. *)
             let rec back v acc =
               if v = start then start :: acc
               else back (Hashtbl.find parent v) (v :: acc)
             in
             found := Some (back u []);
             raise Exit
           end
           else if Int_set.mem w members && not (Hashtbl.mem parent w) then begin
             Hashtbl.replace parent w u;
             Queue.add w q
           end)
         (succs g u)
     done
   with Exit -> ());
  !found

(* Minimal witness: smallest SCC with >= 2 nodes, then the shortest cycle
   through any of its nodes. *)
let find_cycle g nodes =
  let multi =
    List.filter (fun scc -> List.length scc >= 2) (sccs g nodes)
  in
  match
    List.sort (fun a b -> compare (List.length a) (List.length b)) multi
  with
  | [] -> None
  | scc :: _ ->
      let members = Int_set.of_list scc in
      let best = ref None in
      (try
         List.iter
           (fun start ->
             match shortest_cycle_through g members start with
             | Some c -> (
                 match !best with
                 | Some b when List.length b <= List.length c -> ()
                 | _ ->
                     best := Some c;
                     if List.length c = 2 then raise Exit)
             | None -> ())
           scc
       with Exit -> ());
      (match !best with
      | None -> None
      | Some cyc ->
          (* Node sequence -> edge list, wrapping around. *)
          let arr = Array.of_list cyc in
          let n = Array.length arr in
          let edges =
            List.init n (fun i ->
                let src = arr.(i) and dst = arr.((i + 1) mod n) in
                match edge_between g src dst with
                | Some e -> e
                | None ->
                    (* Unreachable: the BFS walked real edges. *)
                    { src; dst; key = "?"; kind = Reads_from })
          in
          Some edges)

(* ----------------------------------------------------------- certify *)

let certify ?shard_of_node history =
  let g =
    { adj = Hashtbl.create 256; edge_tbl = Hashtbl.create 1024;
      rf = 0; anti = 0; ww = 0 }
  in
  (* A writer's shard (sharded histories only): update trees are confined
     to one shard, so the root node determines it. Version numbers are
     per-shard frontiers — comparable only within a shard. *)
  let writer_shard (spec : Spec.t) =
    match shard_of_node with
    | None -> 0
    | Some f -> f spec.Spec.root.Spec.node
  in
  (* Effect-ful writers: id -> (version, write kinds). *)
  let writer_info = Hashtbl.create 256 in
  (* key -> (writer id, version, writer shard, overwrote) list *)
  let writers_of_key : (string, (int * int * int * bool) list) Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun ((spec : Spec.t), (res : Result.t)) ->
      if spec.Spec.kind <> Spec.Read_only && has_effect res then begin
        let kinds = write_kinds spec in
        Hashtbl.replace writer_info spec.Spec.id ();
        Hashtbl.iter
          (fun key ow ->
            let cur =
              match Hashtbl.find_opt writers_of_key key with
              | Some l -> l
              | None -> []
            in
            Hashtbl.replace writers_of_key key
              ((spec.Spec.id, res.Result.version, writer_shard spec, ow) :: cur))
          kinds
      end)
    history;
  (* Version-order edges: conflicting writer pairs at different versions
     of the same shard's frontier, lower version first. Commuting pairs
     are unordered, and cross-shard pairs are never ordered by raw version
     number (shard frontiers advance independently, so equal numbers name
     different epochs — any real ordering between such writers surfaces
     through reads-from/anti-dependency edges instead). *)
  Hashtbl.iter
    (fun key ws ->
      let rec pairs = function
        | [] -> ()
        | (id1, v1, s1, ow1) :: rest ->
            List.iter
              (fun (id2, v2, s2, ow2) ->
                if s1 = s2 && v1 <> v2 && (ow1 || ow2) then begin
                  let src, dst = if v1 < v2 then (id1, id2) else (id2, id1) in
                  add_edge g ~src ~dst ~key ~kind:Version_order
                end)
              rest;
            pairs rest
      in
      pairs ws)
    writers_of_key;
  (* Reads-from and anti-dependency edges, plus unknown-tag accounting.
     Checked per observation (not unioned per key), so a non-repeatable
     read inside one transaction closes a two-edge cycle. *)
  let readers = ref 0 in
  let unknown_count = ref 0 in
  let unknown_tags = ref [] in
  List.iter
    (fun ((spec : Spec.t), (res : Result.t)) ->
      if Result.committed res && res.Result.reads <> [] then begin
        incr readers;
        let rid = spec.Spec.id in
        List.iter
          (fun (key, (value : Value.t)) ->
            let seen = value.Value.writers in
            (* Observed tags: reads-from, or unknown if unaccounted. *)
            Value.Writers.iter
              (fun w ->
                if w <> rid then
                  if Hashtbl.mem writer_info w then
                    add_edge g ~src:w ~dst:rid ~key ~kind:Reads_from
                  else begin
                    incr unknown_count;
                    if List.length !unknown_tags < 20 then
                      unknown_tags := (rid, key, w) :: !unknown_tags
                  end)
              seen;
            (* Effect-ful writers of this key whose tag is absent from this
               observation: the read happened first. *)
            List.iter
              (fun (w, _, _, _) ->
                if w <> rid && not (Value.Writers.mem w seen) then
                  add_edge g ~src:rid ~dst:w ~key ~kind:Anti_dependency)
              (match Hashtbl.find_opt writers_of_key key with
              | Some l -> l
              | None -> []))
          res.Result.reads
      end)
    history;
  (* Node set: writers plus committed readers (readers that also write are
     already present). *)
  let nodes = Hashtbl.create 256 in
  Hashtbl.iter (fun id () -> Hashtbl.replace nodes id ()) writer_info;
  List.iter
    (fun ((spec : Spec.t), (res : Result.t)) ->
      if Result.committed res && res.Result.reads <> [] then
        Hashtbl.replace nodes spec.Spec.id ())
    history;
  (* Sorted: the node enumeration seeds the SCC/BFS walk, so hash-order
     iteration would make the chosen cycle witness layout-dependent. *)
  let node_list =
    Hashtbl.fold (fun id () acc -> id :: acc) nodes [] |> List.sort compare
  in
  let cycle = find_cycle g node_list in
  {
    txns = List.length node_list;
    readers = !readers;
    writers = Hashtbl.length writer_info;
    edges = g.rf + g.anti + g.ww;
    rf_edges = g.rf;
    anti_edges = g.anti;
    ww_edges = g.ww;
    unknown_count = !unknown_count;
    unknown_tags = List.rev !unknown_tags;
    cycle;
  }

let serializable r = r.cycle = None

let pp_kind ppf = function
  | Reads_from -> Format.pp_print_string ppf "rf"
  | Anti_dependency -> Format.pp_print_string ppf "rw"
  | Version_order -> Format.pp_print_string ppf "ww"

let pp_edge ppf e =
  Format.fprintf ppf "%d -%a[%s]-> %d" e.src pp_kind e.kind e.key e.dst

let pp_witness ppf r =
  match r.cycle with
  | None -> ()
  | Some edges ->
      Format.fprintf ppf "@[<v 2>MVSG cycle (%d edges):" (List.length edges);
      List.iter (fun e -> Format.fprintf ppf "@ %a" pp_edge e) edges;
      Format.fprintf ppf "@]"

let pp ppf r =
  Format.fprintf ppf
    "txns=%d (w=%d r=%d) edges=%d (rf=%d rw=%d ww=%d) unknown=%d %s"
    r.txns r.writers r.readers r.edges r.rf_edges r.anti_edges r.ww_edges
    r.unknown_count
    (if serializable r then "1SR" else "NOT-1SR");
  if r.cycle <> None then Format.fprintf ppf "@ %a" pp_witness r
end

module Atomicity = struct
module Spec = Txn.Spec
module Result = Txn.Result
module Value = Txn.Value

type report = Checker.Atomicity.report = {
  reads_checked : int;
  pairs_checked : int;
  partial_reads : int;
  dirty_reads : int;
  examples : (int * int) list;
}

(* An update transaction "has effect" if it committed, or aborted through
   compensation (compensation leaves its writer tags on every key it
   touched, with a net-zero amount — still atomic from a reader's view). *)
let has_effect (res : Result.t) =
  match res.Result.outcome with
  | Result.Committed -> true
  | Result.Aborted "compensated" -> true
  | Result.Aborted _ -> false

module Int_set = Set.Make (Int)
module Str_map = Map.Make (String)

let check history =
  (* Index effect-ful updates: txn id -> written key set; key -> writer ids. *)
  let update_keys = Hashtbl.create 256 in
  let writers_by_key = Hashtbl.create 256 in
  let effectless = Hashtbl.create 64 in
  List.iter
    (fun ((spec : Spec.t), (res : Result.t)) ->
      if spec.Spec.kind <> Spec.Read_only then begin
        if has_effect res then begin
          let keys = Spec.keys_written spec in
          Hashtbl.replace update_keys spec.Spec.id keys;
          List.iter
            (fun k ->
              let cur =
                match Hashtbl.find_opt writers_by_key k with
                | Some ids -> ids
                | None -> []
              in
              Hashtbl.replace writers_by_key k (spec.Spec.id :: cur))
            keys
        end
        else Hashtbl.replace effectless spec.Spec.id ()
      end)
    history;
  let reads_checked = ref 0 in
  let pairs_checked = ref 0 in
  let partial_reads = ref 0 in
  let dirty_reads = ref 0 in
  let examples = ref [] in
  let note_example r u =
    if List.length !examples < 10 then examples := (r, u) :: !examples
  in
  List.iter
    (fun ((spec : Spec.t), (res : Result.t)) ->
      if spec.Spec.kind = Spec.Read_only && Result.committed res then begin
        incr reads_checked;
        (* Writer tags this read observed, unioned per key. *)
        let observed =
          List.fold_left
            (fun acc (key, value) ->
              let prev =
                match Str_map.find_opt key acc with
                | Some s -> s
                | None -> Int_set.empty
              in
              let tags =
                Value.Writers.fold Int_set.add value.Value.writers prev
              in
              Str_map.add key tags acc)
            Str_map.empty res.Result.reads
        in
        (* Dirty reads: any observed tag belonging to an effect-less abort. *)
        Str_map.iter
          (fun _key tags ->
            Int_set.iter
              (fun id ->
                if Hashtbl.mem effectless id then begin
                  incr dirty_reads;
                  note_example spec.Spec.id id
                end)
              tags)
          observed;
        (* Candidate updates: those writing any key this read looked at. *)
        let candidates =
          Str_map.fold
            (fun key _ acc ->
              match Hashtbl.find_opt writers_by_key key with
              | None -> acc
              | Some ids -> List.fold_left (fun a i -> Int_set.add i a) acc ids)
            observed Int_set.empty
        in
        Int_set.iter
          (fun u ->
            match Hashtbl.find_opt update_keys u with
            | None -> ()
            | Some written ->
                let overlap =
                  List.filter (fun k -> Str_map.mem k observed) written
                in
                if List.length overlap >= 2 then begin
                  incr pairs_checked;
                  let seen =
                    List.filter
                      (fun k ->
                        Int_set.mem u (Str_map.find k observed))
                      overlap
                  in
                  let n_seen = List.length seen in
                  if n_seen > 0 && n_seen < List.length overlap then begin
                    incr partial_reads;
                    note_example spec.Spec.id u
                  end
                end)
          candidates
      end)
    history;
  {
    reads_checked = !reads_checked;
    pairs_checked = !pairs_checked;
    partial_reads = !partial_reads;
    dirty_reads = !dirty_reads;
    examples = List.rev !examples;
  }

let clean r = r.partial_reads = 0 && r.dirty_reads = 0

let pp ppf r =
  Format.fprintf ppf
    "reads=%d pairs=%d partial=%d dirty=%d%s" r.reads_checked r.pairs_checked
    r.partial_reads r.dirty_reads
    (if clean r then " (clean)" else " (VIOLATIONS)")
end

module Version_reads = struct
module Spec = Txn.Spec
module Result = Txn.Result
module Value = Txn.Value

type violation = Checker.Version_reads.violation = {
  read_txn : int;
  key : string;
  version : int;
  missing : int list;
  leaked_future : int list;
  unknown : int list;
}

type report = Checker.Version_reads.report = {
  reads_checked : int;
  observations : int;
  violations : violation list;
  violation_count : int;
}

module Int_set = Set.Make (Int)

let has_effect (res : Result.t) =
  match res.Result.outcome with
  | Result.Committed -> true
  | Result.Aborted "compensated" -> true
  | Result.Aborted _ -> false

(* Per-shard fencing for sharded histories: a cross-shard read carries one
   read version per shard (its assigned vector), so key [k] must be fenced
   by the component of the shard {e hosting} [k] — the root's version is
   only that one component. The hosting shard is read off the spec tree:
   the subtransactions whose ops read [k] name the nodes involved, and
   [shard_of_node] maps those to components. Writers of [k] all live in
   [k]'s shard (sharded engines reject cross-shard update trees), so the
   per-component comparison stays exact. *)
let fence_of ~vector ~shard_of_node (spec : Spec.t) ~default key =
  match vector spec.Spec.id with
  | None -> default
  | Some vec ->
      let fence = ref (-1) in
      let rec scan (st : Spec.subtxn) =
        if
          List.exists
            (function Txn.Op.Read k -> k = key | _ -> false)
            st.Spec.ops
        then begin
          let s = shard_of_node st.Spec.node in
          if s >= 0 && s < Array.length vec && vec.(s) > !fence then
            fence := vec.(s)
        end;
        List.iter scan st.Spec.children
      in
      scan spec.Spec.root;
      if !fence < 0 then default else !fence

let check ?(vector = fun _ -> None) ?(shard_of_node = fun _ -> 0) history =
  (* For each key: the effect-ful updates that wrote it, with their
     versions. *)
  let writers_of_key : (string, (int * int) list) Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun ((spec : Spec.t), (res : Result.t)) ->
      if spec.Spec.kind <> Spec.Read_only && has_effect res then
        List.iter
          (fun key ->
            let cur =
              match Hashtbl.find_opt writers_of_key key with
              | Some l -> l
              | None -> []
            in
            Hashtbl.replace writers_of_key key
              ((spec.Spec.id, res.Result.version) :: cur))
          (Spec.keys_written spec))
    history;
  let reads_checked = ref 0 in
  let observations = ref 0 in
  let violations = ref [] in
  let violation_count = ref 0 in
  List.iter
    (fun ((spec : Spec.t), (res : Result.t)) ->
      if spec.Spec.kind = Spec.Read_only && Result.committed res then begin
        incr reads_checked;
        let root_v = res.Result.version in
        (* Union observed writers per key (a key may be read at several
           subtransactions; under 3V they all resolve the same version). *)
        let observed = Hashtbl.create 8 in
        List.iter
          (fun (key, (value : Value.t)) ->
            let cur =
              match Hashtbl.find_opt observed key with
              | Some s -> s
              | None -> Int_set.empty
            in
            Hashtbl.replace observed key
              (Value.Writers.fold Int_set.add value.Value.writers cur))
          res.Result.reads;
        (* Sorted key order: violations are capped at 20 and escape into
           the report, so which ones survive must not depend on hash
           layout. *)
        Hashtbl.fold (fun key seen acc -> (key, seen) :: acc) observed []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.iter (fun (key, seen) ->
            incr observations;
            let v = fence_of ~vector ~shard_of_node spec ~default:root_v key in
            let writers =
              match Hashtbl.find_opt writers_of_key key with
              | Some l -> l
              | None -> []
            in
            let expected =
              List.filter_map
                (fun (id, wv) -> if wv <= v then Some id else None)
                writers
              |> Int_set.of_list
            in
            let known_later =
              List.filter_map
                (fun (id, wv) -> if wv > v then Some id else None)
                writers
              |> Int_set.of_list
            in
            let missing = Int_set.diff expected seen in
            (* Anything seen that is not expected is either a known
               higher-version writer that leaked forward into this read, or
               a writer tag the history cannot account for at all (e.g. a
               dirty read from an effect-less abort). The two point at very
               different bugs, so report them separately. *)
            let surplus = Int_set.diff seen expected in
            let leaked_future = Int_set.inter surplus known_later in
            let unknown = Int_set.diff surplus known_later in
            if
              not
                (Int_set.is_empty missing
                && Int_set.is_empty leaked_future
                && Int_set.is_empty unknown)
            then begin
              incr violation_count;
              if List.length !violations < 20 then
                violations :=
                  {
                    read_txn = spec.Spec.id;
                    key;
                    version = v;
                    missing = Int_set.elements missing;
                    leaked_future = Int_set.elements leaked_future;
                    unknown = Int_set.elements unknown;
                  }
                  :: !violations
            end)
      end)
    history;
  {
    reads_checked = !reads_checked;
    observations = !observations;
    violations = List.rev !violations;
    violation_count = !violation_count;
  }

let clean r = r.violation_count = 0

let pp ppf r =
  Format.fprintf ppf "reads=%d observations=%d violations=%d%s" r.reads_checked
    r.observations r.violation_count
    (if clean r then " (exact)" else " (VIOLATIONS)");
  List.iteri
    (fun i v ->
      if i < 3 then
        Format.fprintf ppf
          "@ [txn %d key %s v%d missing={%s} leaked-future={%s} unknown={%s}]"
          v.read_txn v.key v.version
          (String.concat "," (List.map string_of_int v.missing))
          (String.concat "," (List.map string_of_int v.leaked_future))
          (String.concat "," (List.map string_of_int v.unknown)))
    r.violations
end

module Staleness = struct
module Spec = Txn.Spec
module Result = Txn.Result
module Value = Txn.Value

type report = Checker.Staleness.report = {
  reads : int;
  reads_with_misses : int;
  missed_total : int;
  mean_missed : float;
  mean_lag : float;
  max_lag : float;
}

module Int_set = Set.Make (Int)
module Str_map = Map.Make (String)

let measure history =
  (* Committed updates indexed by key, with settlement times. *)
  let settle_time = Hashtbl.create 256 in
  let writers_by_key = Hashtbl.create 256 in
  List.iter
    (fun ((spec : Spec.t), (res : Result.t)) ->
      if spec.Spec.kind <> Spec.Read_only && Result.committed res then begin
        Hashtbl.replace settle_time spec.Spec.id res.Result.complete_time;
        List.iter
          (fun k ->
            let cur =
              match Hashtbl.find_opt writers_by_key k with
              | Some ids -> ids
              | None -> []
            in
            Hashtbl.replace writers_by_key k (spec.Spec.id :: cur))
          (Spec.keys_written spec)
      end)
    history;
  let reads = ref 0 in
  let reads_with_misses = ref 0 in
  let missed_total = ref 0 in
  let lag_sum = ref 0. in
  let max_lag = ref 0. in
  List.iter
    (fun ((spec : Spec.t), (res : Result.t)) ->
      if spec.Spec.kind = Spec.Read_only && Result.committed res then begin
        incr reads;
        let observed =
          List.fold_left
            (fun acc (key, value) ->
              let prev =
                match Str_map.find_opt key acc with
                | Some s -> s
                | None -> Int_set.empty
              in
              Str_map.add key
                (Value.Writers.fold Int_set.add value.Value.writers prev)
                acc)
            Str_map.empty res.Result.reads
        in
        let candidates =
          Str_map.fold
            (fun key _ acc ->
              match Hashtbl.find_opt writers_by_key key with
              | None -> acc
              | Some ids -> List.fold_left (fun a i -> Int_set.add i a) acc ids)
            observed Int_set.empty
        in
        let oldest_miss = ref None in
        let misses = ref 0 in
        Int_set.iter
          (fun u ->
            match Hashtbl.find_opt settle_time u with
            | Some settled when settled <= res.Result.submit_time ->
                let seen =
                  Str_map.exists (fun _ tags -> Int_set.mem u tags) observed
                in
                if not seen then begin
                  incr misses;
                  oldest_miss :=
                    Some
                      (match !oldest_miss with
                      | None -> settled
                      | Some prev -> Float.min prev settled)
                end
            | _ -> ())
          candidates;
        if !misses > 0 then begin
          incr reads_with_misses;
          missed_total := !missed_total + !misses;
          match !oldest_miss with
          | Some settled ->
              let lag = res.Result.submit_time -. settled in
              lag_sum := !lag_sum +. lag;
              if lag > !max_lag then max_lag := lag
          | None -> ()
        end
      end)
    history;
  {
    reads = !reads;
    reads_with_misses = !reads_with_misses;
    missed_total = !missed_total;
    mean_missed =
      (if !reads = 0 then 0. else float_of_int !missed_total /. float_of_int !reads);
    mean_lag =
      (if !reads_with_misses = 0 then 0.
       else !lag_sum /. float_of_int !reads_with_misses);
    max_lag = !max_lag;
  }

let pp ppf r =
  Format.fprintf ppf "reads=%d missed/read=%.2f mean_lag=%.4fs max_lag=%.4fs"
    r.reads r.mean_missed r.mean_lag r.max_lag
end
