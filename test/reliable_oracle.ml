(* Reference channel: the reliable channel as it was before per-stream
   rings, kept as the specification the ring-window channel is compared
   against (test_net.ml's channel properties). Six tuple-keyed tables hold
   the state: the next sequence and the two floors per link, the unacked
   packets, and the sequences acked or delivered past a gap. [unacked_to]
   folds over every unacked packet. The packet and config types are the
   library's own, so both channels run on the same network type. The
   delivery key packs [(src, seq)] as the library's channel does, since
   the network's key is one int. *)

module Sim = Simul.Sim
module Network = Netsim.Network

type 'm packet = 'm Netsim.Reliable.packet =
  | Data of { src : int; seq : int; body : 'm }
  | Ack of { src : int; seq : int }

type config = Netsim.Reliable.config = {
  acks : bool;
  retransmit : bool;
  timeout : float;
  backoff : float;
  max_backoff : float;
}

type 'm t = {
  net : 'm packet Network.t;
  cfg : config;
  n : int;
  next_seq : (int * int, int) Hashtbl.t;
  pending : (int * int * int, 'm) Hashtbl.t;
  recv_floor : (int * int, int) Hashtbl.t;
  recv_ahead : (int * int * int, unit) Hashtbl.t;
  ack_floor : (int * int, int) Hashtbl.t;
  acked_ahead : (int * int * int, unit) Hashtbl.t;
  mutable retransmissions : int;
  mutable dup_dropped : int;
  mutable acks_sent : int;
}

let create ?(config = Netsim.Reliable.default_config) net =
  if config.acks && (config.timeout <= 0. || config.backoff < 1.) then
    invalid_arg "Reliable.create: timeout must be positive and backoff >= 1";
  let n = Network.size net in
  Network.set_delivery_key net (function
    | Data { src; seq; body = _ } when seq > 0 -> (seq * n) + src
    | Data _ | Ack _ -> -1);
  {
    net;
    cfg = config;
    n;
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

let retransmissions t = t.retransmissions
let dup_dropped t = t.dup_dropped
let acks_sent t = t.acks_sent
let dedup_size t = Hashtbl.length t.recv_ahead

let ack_floor t ~src ~dst =
  match Hashtbl.find_opt t.ack_floor (src, dst) with Some f -> f | None -> 0

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
  Hashtbl.fold (fun (_, d, _) _ acc -> if d = dst then acc + 1 else acc) t.pending 0

let rec arm_retransmit t ~src ~dst ~seq ~delay =
  Sim.schedule (Network.sim t.net) ~delay (fun () ->
      match Hashtbl.find_opt t.pending (src, dst, seq) with
      | None -> ()
      | Some body ->
          t.retransmissions <- t.retransmissions + 1;
          Network.send t.net ~src ~dst (Data { src; seq; body });
          arm_retransmit t ~src ~dst ~seq
            ~delay:(Float.min (delay *. t.cfg.backoff) t.cfg.max_backoff))

let send t ~src ~dst body =
  if not t.cfg.acks then Network.send t.net ~src ~dst (Data { src; seq = 0; body })
  else begin
    let key = (src, dst) in
    let seq = (match Hashtbl.find_opt t.next_seq key with Some n -> n | None -> 0) + 1 in
    Hashtbl.replace t.next_seq key seq;
    Hashtbl.replace t.pending (src, dst, seq) body;
    Network.send t.net ~src ~dst (Data { src; seq; body });
    if t.cfg.retransmit then arm_retransmit t ~src ~dst ~seq ~delay:t.cfg.timeout
  end

let accept t ~node = function
  | Data { src; seq; body = _ } ->
      if not t.cfg.acks then true
      else begin
        t.acks_sent <- t.acks_sent + 1;
        Network.send t.net ~src:node ~dst:src (Ack { src = node; seq });
        record t.recv_floor t.recv_ahead (node, src) seq ~passed:ignore
        || begin
             t.dup_dropped <- t.dup_dropped + 1;
             false
           end
      end
  | Ack { src = acker; seq } ->
      Hashtbl.remove t.pending (node, acker, seq);
      ignore
        (record t.ack_floor t.acked_ahead (node, acker) seq ~passed:(fun seq ->
             Network.forget_delivered t.net ~key:((seq * t.n) + node) ~dst:acker)
          : bool);
      false
