module Sim = Simul.Sim

type 'm packet = Data of { src : int; seq : int; body : 'm } | Ack of { src : int; seq : int }

type config = {
  acks : bool;
  retransmit : bool;
  timeout : float;
  backoff : float;
  max_backoff : float;
}

let default_config =
  { acks = false; retransmit = true; timeout = 0.05; backoff = 2.0; max_backoff = 1.0 }

(* The state of one directed stream [src -> dst], shared by both ends.
   Acks are sent only for packets the receiver has recorded, so
   [ack_floor <= recv_floor <= next_seq] always holds and one ring over
   the window [(ack_floor, next_seq]] serves both: slot [seq land (cap -
   1)] holds the data packet while it is unacknowledged ([vacant] once
   acked, and for every sequence outside the window) and, in [got], whether
   the receiver took it past a gap in [recv_floor]. *)
type 'm stream = {
  src : int;
  dst : int;
  mutable next_seq : int;  (** last allocated *)
  mutable ack_floor : int;
      (** every sequence at or below it acknowledged; the network's
          delivery-dedup records are pruned up to it *)
  mutable recv_floor : int;  (** every sequence at or below it delivered *)
  mutable ring : 'm packet array;  (** power-of-two length *)
  mutable got : Bytes.t;  (** ['\001'] where delivered past a gap *)
}

(* The retry deadlines of one delay: [timeout], then each level's delay
   times [backoff], capped at [max_backoff]. An entry is one transmission
   of a data packet: its deadline, the kernel sequence number reserved
   when it was sent (so that its event runs where a timer armed at the
   send would), its stream and its sequence. Every entry was armed
   [delay] before its deadline, so deadlines come due in arm order and
   the entries form a FIFO over flat arrays (power-of-two capacity,
   oldest at [head]). While a level holds entries it has one kernel event
   queued, [fire], at its oldest entry's deadline; an empty level has
   none. *)
type 'm level = {
  delay : float;
  mutable next : 'm level option;
      (** the following retry's level, made on first use; the level
          itself once [delay] is at its cap *)
  mutable deadlines : float array;
  mutable keys : int array;
  mutable streams : 'm stream array;
  mutable seqs : int array;
  mutable head : int;
  mutable len : int;
  mutable fire : unit -> unit;
}

type 'm t = {
  net : 'm packet Network.t;
  cfg : config;
  n : int;
  rows : 'm stream array array;
      (** [rows.(src).(dst)]; a row is allocated on its source's first send
          and holds [none] until that link's first send *)
  none : 'm stream;
  mutable first : 'm level;  (** [timeout]'s level *)
  unacked : int array;  (** per destination *)
  mutable ahead : int;  (** [got] marks set, over all streams *)
  mutable retransmissions : int;
  mutable dup_dropped : int;
  mutable acks_sent : int;
}

(* The ring's filler, the one value a vacant slot holds: an [Ack] never
   occupies a data slot. *)
let vacant = Ack { src = -1; seq = 0 }
let initial_capacity = 8
let slot s seq = seq land (Array.length s.ring - 1)

(* The data packet [seq] while it is unacknowledged, else [vacant]. Callers
   compare it with [vacant] physically, which reads no packet. *)
let unacked s seq = if seq <= s.ack_floor then vacant else s.ring.(slot s seq)

let unwired delay =
  {
    delay;
    next = None;
    deadlines = [||];
    keys = [||];
    streams = [||];
    seqs = [||];
    head = 0;
    len = 0;
    fire = ignore;
  }

(* Double [l]'s FIFO, or give it its first slots, moving the entries to the
   front of the new arrays. *)
let grow_level t l =
  let cap = Array.length l.keys in
  let cap' = max initial_capacity (2 * cap) in
  let deadlines = Array.make cap' 0. and keys = Array.make cap' 0 in
  let streams = Array.make cap' t.none and seqs = Array.make cap' 0 in
  for k = 0 to l.len - 1 do
    let i = (l.head + k) land (cap - 1) in
    deadlines.(k) <- l.deadlines.(i);
    keys.(k) <- l.keys.(i);
    streams.(k) <- l.streams.(i);
    seqs.(k) <- l.seqs.(i)
  done;
  l.deadlines <- deadlines;
  l.keys <- keys;
  l.streams <- streams;
  l.seqs <- seqs;
  l.head <- 0

let queue_front t l =
  Sim.schedule_reserved (Network.sim t.net) ~at:l.deadlines.(l.head) ~seq:l.keys.(l.head) l.fire

(* A transmission of [s]'s packet [seq] has just been sent: its retry
   deadline on [l] is [l.delay] from now. *)
let arm t l s seq =
  let sim = Network.sim t.net in
  let key = Sim.reserve sim in
  if l.len = Array.length l.keys then grow_level t l;
  let i = (l.head + l.len) land (Array.length l.keys - 1) in
  l.deadlines.(i) <- Sim.now sim +. l.delay;
  l.keys.(i) <- key;
  l.streams.(i) <- s;
  l.seqs.(i) <- seq;
  l.len <- l.len + 1;
  if l.len = 1 then queue_front t l

let pop l =
  l.head <- (l.head + 1) land (Array.length l.keys - 1);
  l.len <- l.len - 1

(* [l]'s event, at its oldest entry's deadline. An entry still unacked is
   retransmitted and armed on the next level. Entries acked since they
   were armed then leave the front with no event of their own, and the
   event is queued again for the oldest entry left. *)
let rec fire t l =
  let s = l.streams.(l.head) and seq = l.seqs.(l.head) in
  let p = unacked s seq in
  if p != vacant then begin
    t.retransmissions <- t.retransmissions + 1;
    Network.send t.net ~src:s.src ~dst:s.dst p;
    arm t (next_level t l) s seq
  end;
  pop l;
  while l.len > 0 && unacked l.streams.(l.head) l.seqs.(l.head) == vacant do
    pop l
  done;
  if l.len > 0 then queue_front t l

and next_level t l =
  match l.next with
  | Some next -> next
  | None ->
      let delay = Float.min (l.delay *. t.cfg.backoff) t.cfg.max_backoff in
      let next = if delay = l.delay then l else level t delay in
      l.next <- Some next;
      next

and level t delay =
  let l = unwired delay in
  l.fire <- (fun () -> fire t l);
  l

let create ?(config = default_config) net =
  if config.acks && (config.timeout <= 0. || config.backoff < 1. || config.max_backoff <= 0.)
  then
    invalid_arg "Reliable.create: timeout and max_backoff must be positive and backoff >= 1";
  let n = Network.size net in
  (* Sequenced data packets are logical messages: however many times the
     channel retransmits one, the network reports at most one delivery per
     (src, seq, dst). The key packs (src, seq); acks count per copy. Raw
     mode sends no sequenced packet and installs no key. *)
  if config.acks then
    Network.set_delivery_key net (function
      | Data { src; seq; body = _ } -> (seq * n) + src
      | Ack _ -> -1);
  let t =
    {
      net;
      cfg = config;
      n;
      rows = Array.make n [||];
      none =
        {
          src = -1;
          dst = -1;
          next_seq = 0;
          ack_floor = 0;
          recv_floor = 0;
          ring = [||];
          got = Bytes.empty;
        };
      first = unwired config.timeout;
      unacked = Array.make n 0;
      ahead = 0;
      retransmissions = 0;
      dup_dropped = 0;
      acks_sent = 0;
    }
  in
  if config.acks && config.retransmit then t.first <- level t config.timeout;
  t

let retransmissions t = t.retransmissions
let dup_dropped t = t.dup_dropped
let acks_sent t = t.acks_sent
let dedup_size t = t.ahead
let unacked_to t ~dst = t.unacked.(dst)

let ack_floor t ~src ~dst =
  let row = t.rows.(src) in
  if Array.length row = 0 then 0 else row.(dst).ack_floor

(* The sender's stream to [dst], allocated on the link's first send. *)
let outgoing t ~src ~dst =
  if Array.length t.rows.(src) = 0 then t.rows.(src) <- Array.make t.n t.none;
  let row = t.rows.(src) in
  if row.(dst) == t.none then
    row.(dst) <-
      {
        src;
        dst;
        next_seq = 0;
        ack_floor = 0;
        recv_floor = 0;
        ring = Array.make initial_capacity vacant;
        got = Bytes.make initial_capacity '\000';
      };
  row.(dst)

(* Double the ring, moving the window to its new slots. *)
let grow s =
  let ring = s.ring and got = s.got in
  let cap = 2 * Array.length ring in
  s.ring <- Array.make cap vacant;
  s.got <- Bytes.make cap '\000';
  for seq = s.ack_floor + 1 to s.next_seq do
    let i = seq land (Array.length ring - 1) and j = slot s seq in
    s.ring.(j) <- ring.(i);
    Bytes.set s.got j (Bytes.get got i)
  done

let send t ~src ~dst body =
  if not t.cfg.acks then
    (* Raw mode: one packet, no state, no timers — indistinguishable from
       using the network directly. *)
    Network.send t.net ~src ~dst (Data { src; seq = 0; body })
  else begin
    let s = outgoing t ~src ~dst in
    let seq = s.next_seq + 1 in
    if seq - s.ack_floor > Array.length s.ring then grow s;
    s.next_seq <- seq;
    let p = Data { src; seq; body } in
    s.ring.(slot s seq) <- p;
    t.unacked.(dst) <- t.unacked.(dst) + 1;
    Network.send t.net ~src ~dst p;
    if t.cfg.retransmit then arm t t.first s seq
  end

(* The receiver's side of [s]: false if [seq] was delivered before.
   Sequences arrive contiguous from 1 save for loss and reordering gaps, so
   the floor walk touches each sequence once over a stream's lifetime. *)
let first_delivery t s seq =
  if seq <= s.recv_floor then false
  else if seq = s.recv_floor + 1 then begin
    s.recv_floor <- seq;
    while s.recv_floor < s.next_seq && Bytes.get s.got (slot s (s.recv_floor + 1)) <> '\000' do
      s.recv_floor <- s.recv_floor + 1;
      Bytes.set s.got (slot s s.recv_floor) '\000';
      t.ahead <- t.ahead - 1
    done;
    true
  end
  else if Bytes.get s.got (slot s seq) <> '\000' then false
  else begin
    Bytes.set s.got (slot s seq) '\001';
    t.ahead <- t.ahead + 1;
    true
  end

(* The sender's side of [s]: [seq] is acknowledged. As the ack floor
   advances, prune the network's delivery-dedup records behind it. *)
let acked t s seq =
  (* A duplicate ack finds the slot vacant already. *)
  if unacked s seq != vacant then begin
    s.ring.(slot s seq) <- vacant;
    t.unacked.(s.dst) <- t.unacked.(s.dst) - 1;
    while s.ack_floor < s.next_seq && s.ring.(slot s (s.ack_floor + 1)) == vacant do
      s.ack_floor <- s.ack_floor + 1;
      Network.forget_delivered t.net ~key:((s.ack_floor * t.n) + s.src) ~dst:s.dst
    done
  end

let accept t ~node = function
  | Data { src; seq; body = _ } ->
      if not t.cfg.acks then true
      else begin
        (* Ack every copy: the sender stops retransmitting as soon as any
           ack survives the network. *)
        t.acks_sent <- t.acks_sent + 1;
        Network.send t.net ~src:node ~dst:src (Ack { src = node; seq });
        first_delivery t t.rows.(src).(node) seq
        || begin
             t.dup_dropped <- t.dup_dropped + 1;
             false
           end
      end
  | Ack { src = acker; seq } ->
      (* We (node) sent (node, acker, seq); it arrived. *)
      acked t t.rows.(node).(acker) seq;
      false
