module Writers = struct
  (* Descending, no duplicates: the newest writer is the head. *)
  type t = int list

  let empty = []
  let is_empty = function [] -> true | _ :: _ -> false

  (* Cells of [l] above [x], or [-1] when [x] is in [l]. *)
  let rec above (x : int) n = function
    | y :: rest when y > x -> above x (n + 1) rest
    | y :: _ when y = x -> -1
    | _ -> n

  (* [l] with [x] inserted below its first [n] cells, which are copied. *)
  let[@tail_mod_cons] rec insert (x : int) n l =
    if n = 0 then x :: l
    else match l with y :: rest -> y :: insert x (n - 1) rest | [] -> [ x ]

  let add x l = match above x 0 l with -1 -> l | n -> insert x n l

  let rec mem (x : int) = function
    | y :: rest -> y = x || (y > x && mem x rest)
    | [] -> false

  (* Shares the first common tail it reaches. *)
  let[@tail_mod_cons] rec union (a : t) b =
    if a == b then a
    else
      match (a, b) with
      | [], l | l, [] -> l
      | x :: a', y :: b' ->
          if x > y then x :: union a' b
          else if x < y then y :: union a b'
          else x :: union a' b'

  let elements l = List.rev l
  let iter f l = List.iter f (List.rev l)
  let fold f l acc = List.fold_left (fun acc x -> f x acc) acc (List.rev l)
  let equal a b = a == b || List.equal Int.equal a b
  let descending l = l
end

type t = { amount : float; entries : string list; writers : Writers.t }

let empty = { amount = 0.; entries = []; writers = Writers.empty }

let incr ~txn ~delta v =
  { v with amount = v.amount +. delta; writers = Writers.add txn v.writers }

let append ~txn ~entry v =
  {
    v with
    entries = entry :: v.entries;
    writers = Writers.add txn v.writers;
  }

let overwrite ~txn ~amount v =
  { v with amount; writers = Writers.add txn v.writers }

let equal a b =
  Float.abs (a.amount -. b.amount) <= 1e-9
  && List.sort String.compare a.entries = List.sort String.compare b.entries
  && Writers.equal a.writers b.writers
