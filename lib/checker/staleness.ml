module Spec = Txn.Spec
module Result = Txn.Result
module Value = Txn.Value

type report = {
  reads : int;
  reads_with_misses : int;
  missed_total : int;
  mean_missed : float;
  mean_lag : float;
  max_lag : float;
}

module Index = History_index

let measure history =
  let idx = Index.build history in
  let n = Array.length idx.Index.ids in
  (* Per-read marks by dense index, valid where they hold the current
     read's dense index: [candidate] for writers of a key the read looked
     at, [seen] for writers whose tag it observed on such a key. *)
  let candidate = Array.make n (-1) and seen = Array.make n (-1) in
  let committed =
    Array.map (fun (_, res) -> Result.committed res) idx.Index.txns
  in
  let settle =
    Array.map
      (fun (_, (res : Result.t)) -> res.Result.complete_time)
      idx.Index.txns
  in
  let reads = ref 0 in
  let reads_with_misses = ref 0 in
  let missed_total = ref 0 in
  let lag_sum = ref 0. in
  let max_lag = ref 0. in
  List.iter
    (fun ((spec : Spec.t), (res : Result.t)) ->
      if spec.Spec.kind = Spec.Read_only && Result.committed res then begin
        incr reads;
        let r = Index.find idx spec.Spec.id in
        let touched = ref [] in
        (* Tags found on a key their writer did not write still count as
           observed (rare: only hand-built histories have them). *)
        let strays = ref [] in
        let consider p =
          let u = idx.Index.w_dense.(p) in
          if candidate.(u) <> r then begin
            candidate.(u) <- r;
            if committed.(u) then touched := u :: !touched
          end
        in
        List.iter
          (fun (key, (value : Value.t)) ->
            Index.merge idx (Index.writers idx key) value.Value.writers
              ~seen:(fun p ->
                seen.(idx.Index.w_dense.(p)) <- r;
                consider p)
              ~unseen:consider
              ~stray:(fun tag -> strays := tag :: !strays))
          res.Result.reads;
        let oldest_miss = ref None in
        let misses = ref 0 in
        List.iter
          (fun u ->
            let settled = settle.(u) in
            if
              settled <= res.Result.submit_time
              && seen.(u) <> r
              && not (List.mem idx.Index.ids.(u) !strays)
            then begin
              incr misses;
              oldest_miss :=
                Some
                  (match !oldest_miss with
                  | None -> settled
                  | Some prev -> Float.min prev settled)
            end)
          !touched;
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
