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

(* An edge is one int over dense indices, [(((src lsl bits) lor dst) lsl
   2) lor kind], where [1 lsl bits] is at least the node count: the high
   bits name the source, and below them a code names the edge within its
   source's row. *)
let code = function Reads_from -> 0 | Anti_dependency -> 1 | Version_order -> 2

(* The edge codes, later the packed successors, are held in chunks of
   [chunk_len] ints rather than in one array as long as the edge count
   (millions on a hot-key history). The major GC sizes each slice by the
   words allocated since the last one, so one such array made the next
   slice sweep for several milliseconds; chunks are allocated, and paced,
   like any other block. *)
let chunk_bits = 16
let chunk_len = 1 lsl chunk_bits
let chunk_mask = chunk_len - 1

type ints = { mutable chunks : int array array; mutable len : int }

let get a i = a.chunks.(i lsr chunk_bits).(i land chunk_mask)
let set a i x = a.chunks.(i lsr chunk_bits).(i land chunk_mask) <- x

(* An empty buffer whose chunk 0 holds [len] ints, at most [chunk_len]. A
   full chunk 0 doubles up to [chunk_len], so a small history's buffer
   stays small; every later chunk is made whole. *)
let create len = { chunks = [| Array.make (Int.min chunk_len len) 0 |]; len = 0 }

let push a x =
  let c = a.len lsr chunk_bits and j = a.len land chunk_mask in
  if c = Array.length a.chunks then begin
    let grown = Array.make (2 * c) [||] in
    Array.blit a.chunks 0 grown 0 c;
    a.chunks <- grown
  end;
  if j = Array.length a.chunks.(c) then begin
    let len = if c = 0 then Int.min chunk_len (2 * j) else chunk_len in
    let chunk = Array.make len 0 in
    Array.blit a.chunks.(c) 0 chunk 0 j;
    a.chunks.(c) <- chunk
  end;
  a.chunks.(c).(j) <- x;
  a.len <- a.len + 1

(* Moves every code into its bucket, in place: bucket [b] is positions
   [start.(b)] to [start.(b + 1) - 1], and a code's bucket is [code lsr
   shift]. [next.(b)] is [b]'s first position not yet settled. A code found
   out of place is carried to the next free position of its own bucket,
   and the code it displaces carried on, until one of [b]'s turns up; so
   each code moves once. *)
let permute e start next shift =
  for b = 0 to Array.length next - 1 do
    while next.(b) < start.(b + 1) do
      let c = ref (get e next.(b)) in
      while !c lsr shift <> b do
        let t = !c lsr shift in
        let p = next.(t) in
        next.(t) <- p + 1;
        let displaced = get e p in
        set e p !c;
        c := displaced
      done;
      set e next.(b) !c;
      next.(b) <- next.(b) + 1
    done
  done

(* Heapsort of [a]'s positions [lo] to [hi - 1]: in place, and O(d log d)
   for a row of d successors whatever their order. [sift] moves the entry
   at heap node [i] (position [lo + i]) down a heap of [len] nodes. *)
let rec sift a lo len i =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c =
      if l + 1 < len && get a (lo + l + 1) > get a (lo + l) then l + 1 else l
    in
    let x = get a (lo + i) and y = get a (lo + c) in
    if y > x then begin
      set a (lo + i) y;
      set a (lo + c) x;
      sift a lo len c
    end
  end

let sort a lo hi =
  let d = hi - lo in
  for i = (d / 2) - 1 downto 0 do
    sift a lo d i
  done;
  for last = d - 1 downto 1 do
    let x = get a lo in
    set a lo (get a (lo + last));
    set a (lo + last) x;
    sift a lo last 0
  done

(* The MVSG in compressed sparse rows: [v]'s successors, deduplicated
   across kinds, are [succ] from [first.(v)] to [first.(v + 1) - 1]. *)
type graph = { n : int; first : int array; succ : ints }

(* Builds the graph in [e], the edge codes, given [out.(v)], how many of
   them leave [v], and counts the distinct edges per kind ([counts.(c)]
   for kind code [c]). The codes are moved into their sources' rows in two
   in-place passes: first into buckets of [1 lsl top] consecutive sources
   (at most 256 buckets, so the positions being filled stay in cache),
   then, within each bucket, into rows. Each row then drops its repeats,
   and its distinct successors are packed to the front of the buffer:
   [mark.(t)] is [v lsl 3] plus a bit per kind once row [v] has met target
   [t]. *)
let graph_of n bits (e : ints) out counts =
  let first = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    first.(v + 1) <- first.(v) + out.(v)
  done;
  let top = Int.max 0 (bits - 8) in
  let buckets = (n + (1 lsl top) - 1) lsr top in
  let start = Array.init (buckets + 1) (fun b -> first.(Int.min n (b lsl top))) in
  permute e start (Array.sub start 0 buckets) (bits + 2 + top);
  let next = out in
  Array.blit first 0 next 0 n;
  permute e first next (bits + 2);
  (* [!k] never passes the row being read, so only codes already read are
     overwritten. *)
  let k = ref 0 and mark = next and dst = (1 lsl bits) - 1 in
  Array.fill mark 0 n (-1);
  for v = 0 to n - 1 do
    let lo = first.(v) and hi = first.(v + 1) in
    first.(v) <- !k;
    for i = lo to hi - 1 do
      let c = get e i in
      let t = (c lsr 2) land dst and kind = 1 lsl (c land 3) in
      let m = mark.(t) in
      if m lsr 3 <> v then begin
        mark.(t) <- (v lsl 3) lor kind;
        counts.(c land 3) <- counts.(c land 3) + 1;
        set e !k t;
        incr k
      end
      else if m land kind = 0 then begin
        mark.(t) <- m lor kind;
        counts.(c land 3) <- counts.(c land 3) + 1
      end
    done
  done;
  first.(n) <- !k;
  { n; first; succ = e }

(* Each row's successors in ascending order: which cycle {!find_cycle}
   reports depends on the order it meets them. *)
let sort_rows g =
  for v = 0 to g.n - 1 do
    sort g.succ g.first.(v) g.first.(v + 1)
  done

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
          let w = get g.succ i in
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
         let w = get g.succ i in
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
  let bits = ref 0 in
  while 1 lsl !bits < n do
    incr bits
  done;
  let bits = !bits in
  (* Room for four edges a transaction before chunk 0 grows. *)
  let e = create (Int.max 16 (4 * n)) and out = Array.make n 0 in
  let add src dst kind =
    if src <> dst then begin
      push e ((((src lsl bits) lor dst) lsl 2) lor code kind);
      out.(src) <- out.(src) + 1
    end
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
     was read before it wrote. *)
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
  let g = graph_of n bits e out counts in
  (* Nodes: writers plus committed readers, seeded in id order so the
     chosen witness does not depend on history order. *)
  let nodes =
    Array.map
      (fun txn -> Index.effectful txn || drawn_reads (snd txn) <> [])
      idx.Index.txns
  in
  let count f a = Array.fold_left (fun c x -> if f x then c + 1 else c) 0 a in
  (* Rows are sorted only when there is a cycle to report. *)
  let cycle =
    if sccs g nodes = [] then None
    else begin
      sort_rows g;
      Option.map (List.map (label idx)) (find_cycle g nodes)
    end
  in
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
