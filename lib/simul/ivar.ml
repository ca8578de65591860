type 'a t = { mutable value : 'a option }

let create () = { value = None }

let fill v x =
  match v.value with
  | Some _ -> invalid_arg "Ivar.fill: already full"
  | None -> v.value <- Some x

let peek v = v.value
let is_full v = Option.is_some v.value
