(* Items live in a growable ring buffer rather than a linked [Queue.t]: a
   send on the steady-state path is two array stores (slot and tail bump)
   with no per-message cons cell, and pre-sizing from the expected inbox
   depth means no growth copies either. Waiters stay in a [Queue.t] — a
   mailbox rarely has more than one blocked receiver. *)

type 'a t = {
  mutable buf : 'a option array;
  mutable head : int;  (* next slot to read *)
  mutable count : int;
  waiters : ('a -> unit) Queue.t;
  mutable hook : unit -> unit;  (* the armed arrival hook, or [disarmed] *)
}

let disarmed () = ()

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  {
    buf = Array.make capacity None;
    head = 0;
    count = 0;
    waiters = Queue.create ();
    hook = disarmed;
  }

let grow m =
  let cap = Array.length m.buf in
  let nbuf = Array.make (cap * 2) None in
  (* Unroll the ring to the base of the new buffer, preserving FIFO order. *)
  for i = 0 to m.count - 1 do
    nbuf.(i) <- m.buf.((m.head + i) mod cap)
  done;
  m.buf <- nbuf;
  m.head <- 0

let send m x =
  match Queue.take_opt m.waiters with
  | Some waker -> waker x
  | None ->
      let cap = Array.length m.buf in
      if m.count = cap then grow m;
      let cap = Array.length m.buf in
      m.buf.((m.head + m.count) mod cap) <- Some x;
      m.count <- m.count + 1;
      if m.hook != disarmed then begin
        let hook = m.hook in
        m.hook <- disarmed;
        hook ()
      end

let on_arrival m hook = m.hook <- hook

let take m =
  if m.count = 0 then invalid_arg "Mailbox.take: empty mailbox";
  let x = m.buf.(m.head) in
  m.buf.(m.head) <- None;
  m.head <- (m.head + 1) mod Array.length m.buf;
  m.count <- m.count - 1;
  match x with Some v -> v | None -> assert false

let recv sim m =
  if m.count > 0 then take m
  else Sim.suspend sim (fun waker -> Queue.add waker m.waiters)

let try_recv m = if m.count > 0 then Some (take m) else None
let length m = m.count
