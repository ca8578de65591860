type t =
  | Read of Store.Key.t
  | Incr of Store.Key.t * float
  | Append of Store.Key.t * string
  | Overwrite of Store.Key.t * float

let key = function
  | Read k | Incr (k, _) | Append (k, _) | Overwrite (k, _) -> k

let is_write = function
  | Read _ -> false
  | Incr _ | Append _ | Overwrite _ -> true

let commuting_write = function
  | Incr _ | Append _ -> true
  | Read _ | Overwrite _ -> false

let apply op ~txn v =
  match op with
  | Read _ -> v
  | Incr (_, delta) -> Value.incr ~txn ~delta v
  | Append (_, entry) -> Value.append ~txn ~entry v
  | Overwrite (_, amount) -> Value.overwrite ~txn ~amount v
