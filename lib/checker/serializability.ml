module Spec = Txn.Spec
module Result = Txn.Result
module Value = Txn.Value
module Op = Txn.Op

type edge_kind = Reads_from | Anti_dependency | Version_order

type edge = { src : int; dst : int; key : string; kind : edge_kind }

type report = {
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

module Index = History_index

(* ------------------------------------------------------------ graph *)

(* An edge is one int over dense indices, [((src * n + dst) lsl 2) lor
   kind]: sorted, the ints group edges by source, then target, then kind
   (the CSR order), and a repeated edge sits next to its twin. *)
let code = function Reads_from -> 0 | Anti_dependency -> 1 | Version_order -> 2

type edges = { mutable codes : int array; mutable len : int }

let reserve e capacity =
  if capacity > Array.length e.codes then begin
    let grown = Array.make capacity 0 in
    Array.blit e.codes 0 grown 0 e.len;
    e.codes <- grown
  end

let push e x =
  if e.len = Array.length e.codes then reserve e ((2 * e.len) + 1024);
  e.codes.(e.len) <- x;
  e.len <- e.len + 1

(* LSD radix sort of the non-negative [a.(0 .. len - 1)], 16 bits a pass.
   Returns the array holding the sorted prefix: [a] or its scratch twin. *)
let radix_sort a len =
  let top = ref 0 in
  for i = 0 to len - 1 do
    if a.(i) > !top then top := a.(i)
  done;
  (* 2^16 buckets a pass, or fewer when every value fits in one pass. *)
  let buckets = min 0x10000 (!top + 1) in
  let count = Array.make (buckets + 1) 0 in
  let rec pass src dst shift =
    if !top lsr shift = 0 then src
    else begin
      Array.fill count 0 (buckets + 1) 0;
      for i = 0 to len - 1 do
        let b = (src.(i) lsr shift) land 0xffff in
        count.(b + 1) <- count.(b + 1) + 1
      done;
      for b = 1 to buckets do
        count.(b) <- count.(b) + count.(b - 1)
      done;
      for i = 0 to len - 1 do
        let x = src.(i) in
        let b = (x lsr shift) land 0xffff in
        dst.(count.(b)) <- x;
        count.(b) <- count.(b) + 1
      done;
      pass dst src (shift + 16)
    end
  in
  pass a (Array.make len 0) 0

(* The MVSG in compressed sparse rows: [v]'s successors, deduplicated
   across kinds and ascending, are [succ.(first.(v))] to
   [succ.(first.(v + 1) - 1)]. *)
type graph = { n : int; first : int array; succ : int array }

(* Sorts the edge codes, counts the distinct ones per kind ([counts.(c)]
   for kind code [c]) and packs the successors in place of the codes. *)
let graph_of n (e : edges) counts =
  let codes = radix_sort e.codes e.len in
  let first = Array.make (n + 1) 0 in
  let k = ref 0 and prev = ref (-1) in
  for i = 0 to e.len - 1 do
    let c = codes.(i) in
    if c <> !prev then begin
      counts.(c land 3) <- counts.(c land 3) + 1;
      let pair = c lsr 2 in
      if !prev < 0 || pair <> !prev lsr 2 then begin
        first.((pair / n) + 1) <- first.((pair / n) + 1) + 1;
        (* [!k <= i]: only codes already read are overwritten. *)
        codes.(!k) <- pair mod n;
        incr k
      end;
      prev := c
    end
  done;
  for v = 1 to n do
    first.(v) <- first.(v) + first.(v - 1)
  done;
  { n; first; succ = codes }

(* ----------------------------------------------------- cycle search *)

(* Iterative Tarjan: the strongly-connected components with two or more
   nodes, of the nodes reachable in [g] from every node [v] with
   [nodes.(v)], visited in ascending order. *)
let sccs g nodes =
  let index = Array.make g.n (-1) in
  let lowlink = Array.make g.n 0 in
  let on_stack = Array.make g.n false in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  (* The call stack: node and its next successor slot, per frame. *)
  let call_v = Array.make g.n 0 and call_next = Array.make g.n 0 in
  let depth = ref 0 in
  let enter v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    call_v.(!depth) <- v;
    call_next.(!depth) <- g.first.(v);
    incr depth
  in
  let visit root =
    if nodes.(root) && index.(root) < 0 then begin
      enter root;
      while !depth > 0 do
        let top = !depth - 1 in
        let v = call_v.(top) in
        let i = call_next.(top) in
        if i < g.first.(v + 1) then begin
          call_next.(top) <- i + 1;
          let w = g.succ.(i) in
          if index.(w) < 0 then enter w
          else if on_stack.(w) then lowlink.(v) <- Int.min lowlink.(v) index.(w)
        end
        else begin
          decr depth;
          if lowlink.(v) = index.(v) then begin
            let rec pop acc =
              match !stack with
              | w :: tl ->
                  stack := tl;
                  on_stack.(w) <- false;
                  if w = v then w :: acc else pop (w :: acc)
              | [] -> acc
            in
            match pop [] with [ _ ] -> () | scc -> out := scc :: !out
          end;
          if !depth > 0 then begin
            let parent = call_v.(!depth - 1) in
            lowlink.(parent) <- Int.min lowlink.(parent) lowlink.(v)
          end
        end
      done
    end
  in
  for v = 0 to g.n - 1 do
    visit v
  done;
  !out

(* Shortest cycle through [start] staying inside [members]: BFS until an
   edge closes back on [start]. Returns the node sequence of the cycle.
   [parent] is all [-1] on entry and on return. *)
let shortest_cycle_through g members parent start =
  let q = Queue.create () in
  let reached = ref [ start ] in
  Queue.add start q;
  parent.(start) <- start;
  let found = ref None in
  (try
     while not (Queue.is_empty q) do
       let u = Queue.pop q in
       for i = g.first.(u) to g.first.(u + 1) - 1 do
         let w = g.succ.(i) in
         if w = start then begin
           (* Reconstruct start ... u, then close with u -> start. *)
           let rec back v acc =
             if v = start then start :: acc else back parent.(v) (v :: acc)
           in
           found := Some (back u []);
           raise Exit
         end
         else if members.(w) && parent.(w) < 0 then begin
           parent.(w) <- u;
           reached := w :: !reached;
           Queue.add w q
         end
       done
     done
   with Exit -> ());
  List.iter (fun v -> parent.(v) <- -1) !reached;
  !found

(* Minimal witness: smallest SCC with >= 2 nodes, then the shortest cycle
   through any of its nodes, as (src, dst) pairs of dense indices. *)
let find_cycle g nodes =
  match
    List.sort
      (fun a b -> Int.compare (List.length a) (List.length b))
      (sccs g nodes)
  with
  | [] -> None
  | scc :: _ ->
      let members = Array.make g.n false in
      List.iter (fun v -> members.(v) <- true) scc;
      let parent = Array.make g.n (-1) in
      let best = ref None in
      (try
         List.iter
           (fun start ->
             match shortest_cycle_through g members parent start with
             | Some c -> (
                 match !best with
                 | Some b when List.length b <= List.length c -> ()
                 | _ ->
                     best := Some c;
                     if List.length c = 2 then raise Exit)
             | None -> ())
           scc
       with Exit -> ());
      Option.map
        (fun cyc ->
          (* Node sequence -> edge list, wrapping around. *)
          let arr = Array.of_list cyc in
          let len = Array.length arr in
          List.init len (fun i -> (arr.(i), arr.((i + 1) mod len))))
        !best

(* ----------------------------------------------------- witness keys *)

(* The graph keeps no kinds or keys. A witness edge src -> dst is labelled
   by re-deriving, for it alone, what generated it: its kind, preferring
   reads-from for readability, then anti-dependency, then version order.
   A reads-from or anti-dependency edge names the first key observed that
   yields it; a version-order edge the smallest key (String.compare) both
   ends wrote with at least one overwrite — an order of the keys alone. *)

(* The writer position of dense index [d] among [key]'s writers, if any. *)
let position idx key d =
  let first, stop = Index.writers idx key in
  let rec go p =
    if p >= stop then None
    else if idx.Index.w_dense.(p) = d then Some p
    else go (p + 1)
  in
  go first

(* A committed transaction's observations; the only ones that draw edges. *)
let drawn_reads (res : Result.t) =
  if Result.committed res then res.Result.reads else []

let label idx (src, dst) =
  let id d = idx.Index.ids.(d) in
  let reads d = drawn_reads (snd idx.Index.txns.(d)) in
  let rf () =
    if Index.effectful idx.Index.txns.(src) then
      List.find_opt
        (fun (_, (v : Value.t)) -> Value.Writers.mem (id src) v.Value.writers)
        (reads dst)
    else None
  in
  let anti () =
    List.find_opt
      (fun (key, (v : Value.t)) ->
        Option.is_some (position idx key dst)
        && not (Value.Writers.mem (id dst) v.Value.writers))
      (reads src)
  in
  let ww () =
    let rec written acc (st : Spec.subtxn) =
      List.fold_left written
        (List.filter_map
           (fun op -> if Op.is_write op then Some (Op.key op) else None)
           st.Spec.ops
        @ acc)
        st.Spec.children
    in
    List.sort_uniq Store.Key.compare
      (written [] (fst idx.Index.txns.(src)).Spec.root)
    |> List.find_opt (fun key ->
           match (position idx key src, position idx key dst) with
           | Some p, Some q ->
               idx.Index.w_overwrote.(p) || idx.Index.w_overwrote.(q)
           | _ -> false)
  in
  let kind, key =
    match rf () with
    | Some (key, _) -> (Reads_from, Store.Key.name key)
    | None -> (
        match anti () with
        | Some (key, _) -> (Anti_dependency, Store.Key.name key)
        | None ->
            (* The BFS walked real edges, so a version-order edge it is. *)
            (Version_order, Option.fold ~none:"?" ~some:Store.Key.name (ww ())))
  in
  { src = id src; dst = id dst; key; kind }

(* ----------------------------------------------------------- certify *)

let certify ?shard_of_node history =
  let idx = Index.build history in
  let n = Array.length idx.Index.ids in
  let version p = (snd idx.Index.txns.(idx.Index.w_dense.(p))).Result.version in
  (* A writer's shard (sharded histories only): update trees are confined
     to one shard, so the root node determines it. *)
  let shard p =
    match shard_of_node with
    | None -> 0
    | Some f ->
        let spec, _ = idx.Index.txns.(idx.Index.w_dense.(p)) in
        f spec.Spec.root.Spec.node
  in
  let e = { codes = [||]; len = 0 } in
  let add src dst kind =
    if src <> dst then push e ((((src * n) + dst) lsl 2) lor code kind)
  in
  (* Version-order edges: conflicting writer pairs at different versions
     of the same shard's frontier, lower version first. Commuting pairs
     are unordered, and cross-shard pairs are never ordered by raw version
     number (shard frontiers advance independently, so equal numbers name
     different epochs — any real ordering between such writers surfaces
     through reads-from/anti-dependency edges instead). *)
  for s = 0 to Array.length idx.Index.starts - 2 do
    let first = idx.Index.starts.(s) and stop = idx.Index.starts.(s + 1) in
    for p = first to stop - 1 do
      if idx.Index.w_overwrote.(p) then
        for q = first to stop - 1 do
          let vp = version p and vq = version q in
          if vp <> vq && shard p = shard q then begin
            let lo, hi = if vp < vq then (p, q) else (q, p) in
            add idx.Index.w_dense.(lo) idx.Index.w_dense.(hi) Version_order
          end
        done
    done
  done;
  (* Reads-from and anti-dependency edges, plus unknown-tag accounting.
     Checked per observation (not unioned per key), so a non-repeatable
     read inside one transaction closes a two-edge cycle. An observed tag
     is reads-from; an effect-ful writer of the key whose tag is absent
     was read before it wrote. So each observation draws one edge per
     writer of its key, plus one per tag of an effect-ful writer of
     another key (rare enough to grow the buffer for): the buffer is sized
     once. *)
  reserve e
    (List.fold_left
       (fun len (_, res) ->
         List.fold_left
           (fun len (key, _) ->
             let first, stop = Index.writers idx key in
             len + stop - first)
           len (drawn_reads res))
       e.len history);
  let readers = ref 0 in
  let unknown_count = ref 0 in
  let unknown_tags = ref [] in
  List.iter
    (fun ((spec : Spec.t), res) ->
      match drawn_reads res with
      | [] -> ()
      | reads ->
          incr readers;
          let rid = spec.Spec.id in
          let r = Index.find idx rid in
          List.iter
            (fun (key, (value : Value.t)) ->
              Index.merge idx (Index.writers idx key) value.Value.writers
                ~seen:(fun p -> add idx.Index.w_dense.(p) r Reads_from)
                ~unseen:(fun p -> add r idx.Index.w_dense.(p) Anti_dependency)
                ~stray:(fun w ->
                  if w <> rid then begin
                    let d = Index.find idx w in
                    if d >= 0 && Index.effectful idx.Index.txns.(d) then
                      add d r Reads_from
                    else begin
                      if !unknown_count < 20 then
                        unknown_tags := (rid, Store.Key.name key, w) :: !unknown_tags;
                      incr unknown_count
                    end
                  end))
            reads)
    history;
  let counts = Array.make 3 0 in
  let g = graph_of n e counts in
  (* Nodes: writers plus committed readers, seeded in id order so the
     chosen witness does not depend on history order. *)
  let nodes =
    Array.map
      (fun txn -> Index.effectful txn || drawn_reads (snd txn) <> [])
      idx.Index.txns
  in
  let count f a = Array.fold_left (fun c x -> if f x then c + 1 else c) 0 a in
  let cycle = Option.map (List.map (label idx)) (find_cycle g nodes) in
  {
    txns = count Fun.id nodes;
    readers = !readers;
    writers = count Index.effectful idx.Index.txns;
    edges = counts.(0) + counts.(1) + counts.(2);
    rf_edges = counts.(code Reads_from);
    anti_edges = counts.(code Anti_dependency);
    ww_edges = counts.(code Version_order);
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
