module Spec = Txn.Spec
module Result = Txn.Result

type report = {
  reads_checked : int;
  pairs_checked : int;
  partial_reads : int;
  dirty_reads : int;
  examples : (int * int) list;
}

module Index = History_index

let check history =
  let idx = Index.build history in
  let n = Array.length idx.Index.ids in
  (* Per-read scratch, indexed by the candidate update's dense index and
     valid only where [stamp] holds the current read's number. *)
  let stamp = Array.make n (-1) in
  let overlap = Array.make n 0 and seen_on = Array.make n 0 in
  let reads_checked = ref 0 in
  let pairs_checked = ref 0 in
  let partial_reads = ref 0 in
  let dirty_reads = ref 0 in
  let examples = ref [] in
  let n_examples = ref 0 in
  let note_example r u =
    if !n_examples < 10 then begin
      examples := (r, u) :: !examples;
      incr n_examples
    end
  in
  List.iter
    (fun ((spec : Spec.t), (res : Result.t)) ->
      if spec.Spec.kind = Spec.Read_only && Result.committed res then begin
        incr reads_checked;
        let r = Index.find idx spec.Spec.id in
        let touched = ref [] in
        let touch p =
          let u = idx.Index.w_dense.(p) in
          if stamp.(u) <> r then begin
            stamp.(u) <- r;
            overlap.(u) <- 0;
            seen_on.(u) <- 0;
            touched := u :: !touched
          end;
          overlap.(u) <- overlap.(u) + 1;
          u
        in
        (* Keys in sorted order, so dirty-read examples come out as the
           writer-tag union per key would list them. Every update writing
           a key this read looked at is a candidate. *)
        Index.observed res.Result.reads
        |> List.sort (fun (a, _) (b, _) -> Store.Key.compare a b)
        |> List.iter (fun (key, tags) ->
               Index.merge idx (Index.writers idx key) tags
                 ~seen:(fun p ->
                   let u = touch p in
                   seen_on.(u) <- seen_on.(u) + 1)
                 ~unseen:(fun p -> ignore (touch p))
                 ~stray:(fun tag ->
                   (* Dirty reads: an observed tag of an effect-less abort. *)
                   let d = Index.find idx tag in
                   if d >= 0 && Index.effectless idx.Index.txns.(d) then begin
                     incr dirty_reads;
                     note_example spec.Spec.id tag
                   end));
        (* Updates overlapping the read on >= 2 keys, in id order: seen on
           all of those keys or on none. *)
        List.filter (fun u -> overlap.(u) >= 2) !touched
        |> List.sort Int.compare
        |> List.iter (fun u ->
               incr pairs_checked;
               if seen_on.(u) > 0 && seen_on.(u) < overlap.(u) then begin
                 incr partial_reads;
                 note_example spec.Spec.id idx.Index.ids.(u)
               end)
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
