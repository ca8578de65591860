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

type 'm t = {
  net : 'm packet Network.t;
  cfg : config;
  next_seq : (int * int, int) Hashtbl.t;  (** (src, dst) -> last allocated *)
  pending : (int * int * int, 'm) Hashtbl.t;  (** (src, dst, seq) unacked *)
  recv_floor : (int * int, int) Hashtbl.t;
      (** (receiver, src) -> highest seq with every seq at or below it
          delivered; the receiver-side dedup *)
  recv_ahead : (int * int * int, unit) Hashtbl.t;
      (** (receiver, src, seq) delivered past a gap, waiting for the floor *)
  ack_floor : (int * int, int) Hashtbl.t;
      (** (src, dst) -> highest seq with every seq at or below it acked;
          the network's delivery-dedup records are pruned up to it *)
  acked_ahead : (int * int * int, unit) Hashtbl.t;
      (** (src, dst, seq) acked past a gap, waiting for the floor *)
  mutable retransmissions : int;
  mutable dup_dropped : int;
  mutable acks_sent : int;
}

let create ?(config = default_config) net =
  if config.acks && (config.timeout <= 0. || config.backoff < 1.) then
    invalid_arg "Reliable.create: timeout must be positive and backoff >= 1";
  (* Sequenced data packets are logical messages: however many times the
     channel retransmits one, the network reports at most one delivery per
     (src, seq, dst). Acks and raw-mode packets (seq = 0) keep per-copy
     accounting. *)
  Network.set_delivery_key net (function
    | Data { src; seq; body = _ } when seq > 0 -> Some (src, seq)
    | Data _ | Ack _ -> None);
  {
    net;
    cfg = config;
    next_seq = Hashtbl.create 64;
    pending = Hashtbl.create 256;
    recv_floor = Hashtbl.create 64;
    recv_ahead = Hashtbl.create 64;
    ack_floor = Hashtbl.create 64;
    acked_ahead = Hashtbl.create 64;
    retransmissions = 0;
    dup_dropped = 0;
    acks_sent = 0;
  }

let config t = t.cfg
let network t = t.net
let retransmissions t = t.retransmissions
let dup_dropped t = t.dup_dropped
let acks_sent t = t.acks_sent
let dedup_size t = Hashtbl.length t.recv_ahead

let ack_floor t ~src ~dst =
  match Hashtbl.find_opt t.ack_floor (src, dst) with Some f -> f | None -> 0

(* One side's record of the sequences it has seen on each stream: [floors]
   maps a stream to the highest sequence with every one at or below it
   seen, [ahead] holds the sequences seen past a gap. Sequences arrive
   contiguous from 1 save for loss and reordering gaps, so the floor walk
   touches each sequence once over a stream's lifetime (O(1) amortised) and
   [ahead] holds only the gap window. [passed s] runs for each sequence the
   floor walks over. False if [seq] was seen before. *)
let record floors ahead ((a, b) as stream) seq ~passed =
  let f = match Hashtbl.find_opt floors stream with Some f -> f | None -> 0 in
  if seq <= f then false
  else if seq = f + 1 then begin
    passed seq;
    let nf = ref seq in
    while Hashtbl.mem ahead (a, b, !nf + 1) do
      incr nf;
      Hashtbl.remove ahead (a, b, !nf);
      passed !nf
    done;
    Hashtbl.replace floors stream !nf;
    true
  end
  else if Hashtbl.mem ahead (a, b, seq) then false
  else begin
    Hashtbl.replace ahead (a, b, seq) ();
    true
  end

let unacked_to t ~dst =
  (* lint: hash-order-ok — a commutative integer count; the fold's result
     is independent of enumeration order. *)
  Hashtbl.fold
    (fun (_, d, _) _ acc -> if d = dst then acc + 1 else acc)
    t.pending 0

let rec arm_retransmit t ~src ~dst ~seq ~delay =
  Sim.schedule (Network.sim t.net) ~delay (fun () ->
      match Hashtbl.find_opt t.pending (src, dst, seq) with
      | None -> () (* acknowledged; the timer chain dies *)
      | Some body ->
          t.retransmissions <- t.retransmissions + 1;
          Network.send t.net ~src ~dst (Data { src; seq; body });
          arm_retransmit t ~src ~dst ~seq
            ~delay:(Float.min (delay *. t.cfg.backoff) t.cfg.max_backoff))

let send t ~src ~dst body =
  if not t.cfg.acks then
    (* Raw mode: one packet, no state, no timers — indistinguishable from
       using the network directly. *)
    Network.send t.net ~src ~dst (Data { src; seq = 0; body })
  else begin
    let key = (src, dst) in
    let seq =
      (match Hashtbl.find_opt t.next_seq key with Some n -> n | None -> 0) + 1
    in
    Hashtbl.replace t.next_seq key seq;
    Hashtbl.replace t.pending (src, dst, seq) body;
    Network.send t.net ~src ~dst (Data { src; seq; body });
    if t.cfg.retransmit then arm_retransmit t ~src ~dst ~seq ~delay:t.cfg.timeout
  end

let rec recv t ~node =
  match Network.recv t.net ~node with
  | Data { src; seq; body } ->
      if not t.cfg.acks then body
      else begin
        (* Ack every copy: the sender stops retransmitting as soon as any
           ack survives the network. *)
        t.acks_sent <- t.acks_sent + 1;
        Network.send t.net ~src:node ~dst:src (Ack { src = node; seq });
        if record t.recv_floor t.recv_ahead (node, src) seq ~passed:ignore then
          body
        else begin
          t.dup_dropped <- t.dup_dropped + 1;
          recv t ~node
        end
      end
  | Ack { src = acker; seq } ->
      (* We (node) sent (node, acker, seq); it arrived. *)
      Hashtbl.remove t.pending (node, acker, seq);
      (* As the ack floor advances, prune the network's delivery-dedup
         records behind it. *)
      ignore
        (record t.ack_floor t.acked_ahead (node, acker) seq ~passed:(fun seq ->
             Network.forget_delivered t.net ~src:node ~seq ~dst:acker)
          : bool);
      recv t ~node
