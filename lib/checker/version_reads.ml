module Spec = Txn.Spec
module Result = Txn.Result
module Value = Txn.Value

type violation = {
  read_txn : int;
  key : string;
  version : int;
  missing : int list;
  leaked_future : int list;
  unknown : int list;
}

type report = {
  reads_checked : int;
  observations : int;
  violations : violation list;
  violation_count : int;
}

module Index = History_index

(* Per-shard fencing for sharded histories: a cross-shard read carries one
   read version per shard (its assigned vector), so key [k] must be fenced
   by the component of the shard {e hosting} [k] — the root's version is
   only that one component. The hosting shard is read off the spec tree:
   the subtransactions whose ops read [k] name the nodes involved, and
   [shard_of_node] maps those to components. Writers of [k] all live in
   [k]'s shard (sharded engines reject cross-shard update trees), so the
   per-component comparison stays exact. A key's fence is the largest
   in-range component over the subtransactions reading it, [-1] when there
   is none: one walk of the read's own tree, in plain recursion, so it
   allocates nothing. *)
let rec fence ~shard_of_node vec key (st : Spec.subtxn) =
  let s = shard_of_node st.Spec.node in
  let own =
    if s >= 0 && s < Array.length vec && reads key st.Spec.ops then vec.(s)
    else -1
  in
  fence_children ~shard_of_node vec key own st.Spec.children

and fence_children ~shard_of_node vec key f = function
  | [] -> f
  | st :: rest ->
      fence_children ~shard_of_node vec key
        (Int.max f (fence ~shard_of_node vec key st))
        rest

and reads key = function
  | [] -> false
  | Txn.Op.Read k :: _ when Store.Key.equal k key -> true
  | _ :: ops -> reads key ops

let check ?(vector = fun _ -> None) ?(shard_of_node = fun _ -> 0) history =
  let idx = Index.build history in
  let versions =
    Array.map (fun (_, (res : Result.t)) -> res.Result.version) idx.Index.txns
  in
  let version p = versions.(idx.Index.w_dense.(p)) in
  let reads_checked = ref 0 in
  let observations = ref 0 in
  let violations = ref [] in
  let recorded = ref 0 in
  let violation_count = ref 0 in
  List.iter
    (fun ((spec : Spec.t), (res : Result.t)) ->
      if spec.Spec.kind = Spec.Read_only && Result.committed res then begin
        incr reads_checked;
        let root_v = res.Result.version in
        let fence_of =
          match vector spec.Spec.id with
          | None -> fun _ -> root_v
          | Some vec ->
              fun key ->
                let f = fence ~shard_of_node vec key spec.Spec.root in
                if f >= 0 then f else root_v
        in
        (* Observed writers are unioned per key (a key may be read at
           several subtransactions; under 3V they all resolve the same
           version). Sorted key order: violations are capped at 20 and
           escape into the report, so which ones survive must not depend
           on read order. *)
        Index.observed res.Result.reads
        |> List.sort (fun (a, _) (b, _) -> Store.Key.compare a b)
        |> List.iter (fun (key, seen) ->
               incr observations;
               let v = fence_of key in
               (* A writer at version <= v must be seen; one above it must
                  not. Anything seen that is not expected is either a known
                  higher-version writer that leaked forward into this read,
                  or a writer tag the history cannot account for at all
                  (e.g. a dirty read from an effect-less abort). The two
                  point at very different bugs, so report them
                  separately. *)
               let missing = ref [] and leaked_future = ref []
               and unknown = ref [] in
               (* Positions arrive descending and strays ascending, so
                  consing leaves [missing] and [leaked_future] ascending
                  and [unknown] descending. *)
               Index.merge idx (Index.writers idx key) seen
                 ~seen:(fun p ->
                   if version p > v then
                     leaked_future := idx.Index.w_id.(p) :: !leaked_future)
                 ~unseen:(fun p ->
                   if version p <= v then
                     missing := idx.Index.w_id.(p) :: !missing)
                 ~stray:(fun tag -> unknown := tag :: !unknown);
               if !missing <> [] || !leaked_future <> [] || !unknown <> []
               then begin
                 incr violation_count;
                 if !recorded < 20 then begin
                   incr recorded;
                   violations :=
                     {
                       read_txn = spec.Spec.id;
                       key = Store.Key.name key;
                       version = v;
                       missing = !missing;
                       leaked_future = !leaked_future;
                       unknown = List.rev !unknown;
                     }
                     :: !violations
                 end
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
