(* Messages live unboxed in a growable ring buffer rather than a linked
   [Queue.t] or an option array: a send on the steady-state path is two
   array stores (slot and tail bump) and allocates nothing, and pre-sizing
   from the expected inbox depth means no growth copies either. The array
   is allocated by the first queued message, which also becomes the ring's
   filler: it stays in the array's last slot, outside the ring, and every
   slot a {!take} vacates is reset to it, so a taken message is not pinned
   by its old slot. *)

type 'a t = {
  mutable buf : 'a array;  (* ring slots, then the filler; [||] until a first send queues *)
  mutable head : int;  (* next slot to read *)
  mutable count : int;
  capacity : int;  (* ring slots of the first array *)
  mutable hook : unit -> unit;  (* the armed arrival hook, or [disarmed] *)
}

let disarmed () = ()

let create ?(capacity = 16) () =
  {
    buf = [||];
    head = 0;
    count = 0;
    capacity = max capacity 1;
    hook = disarmed;
  }

(* Before the first queued message [buf] is empty and [x] becomes the
   filler; afterwards the ring doubles, unrolled to the base of the new
   array to keep FIFO order. *)
let grow m x =
  let len = Array.length m.buf in
  if len = 0 then m.buf <- Array.make (m.capacity + 1) x
  else begin
    let cap = len - 1 in
    let nbuf = Array.make ((2 * cap) + 1) m.buf.(cap) in
    for i = 0 to m.count - 1 do
      let j = m.head + i in
      nbuf.(i) <- m.buf.(if j >= cap then j - cap else j)
    done;
    m.buf <- nbuf;
    m.head <- 0
  end

let send m x =
  (* [>=]: the unallocated ring has -1 slots. *)
  if m.count >= Array.length m.buf - 1 then grow m x;
  let cap = Array.length m.buf - 1 in
  let j = m.head + m.count in
  m.buf.(if j >= cap then j - cap else j) <- x;
  m.count <- m.count + 1;
  if m.hook != disarmed then begin
    let hook = m.hook in
    m.hook <- disarmed;
    hook ()
  end

let on_arrival m hook = m.hook <- hook

let take m =
  if m.count = 0 then invalid_arg "Mailbox.take: empty mailbox";
  let buf = m.buf in
  let cap = Array.length buf - 1 in
  let x = buf.(m.head) in
  buf.(m.head) <- buf.(cap);
  m.head <- (if m.head + 1 = cap then 0 else m.head + 1);
  m.count <- m.count - 1;
  x

(* [h] continues the drain by calling [drain] in tail position, so a
   drain through any number of queued messages runs in one stack frame
   inside [woken]'s handler. *)
let serve sim m ~name h =
  let rec drain () = if m.count = 0 then m.hook <- arrival else h (take m) drain
  and woken () = try drain () with exn -> Sim.fail sim name exn
  and arrival () = Sim.schedule sim ~delay:0. woken in
  m.hook <- arrival

let length m = m.count
