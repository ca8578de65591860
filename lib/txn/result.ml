type outcome = Committed | Aborted of string

type t = {
  txn_id : int;
  outcome : outcome;
  version : int;
  served_by : int;
  reads : (Store.Key.t * Value.t) list;
  submit_time : float;
  root_commit_time : float;
  complete_time : float;
}

let latency t = t.complete_time -. t.submit_time
let blocking_latency t = t.root_commit_time -. t.submit_time
let committed t = t.outcome = Committed

let pp_outcome ppf = function
  | Committed -> Format.pp_print_string ppf "committed"
  | Aborted reason -> Format.fprintf ppf "aborted(%s)" reason
