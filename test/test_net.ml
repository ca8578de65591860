(* Tests for the network substrate and latency models. *)

module Sim = Simul.Sim
module Mailbox = Simul.Mailbox
module Network = Netsim.Network
module Latency = Netsim.Latency

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Drains [node]'s inbox by callbacks, handing [f] each message. *)
let receive sim net ~node f =
  Mailbox.serve sim (Network.inbox net ~node) ~name:(Printf.sprintf "n%d" node) (fun m next ->
      f m;
      next ())

let delivery () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.1) () in
  let got = ref None in
  receive sim net ~node:1 (fun m -> got := Some m);
  Network.send net ~src:0 ~dst:1 "hello";
  ignore (Sim.run sim ());
  checkb "received" true (!got = Some "hello")

let constant_latency_timing () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.25) () in
  let at = ref 0. in
  receive sim net ~node:1 (fun () -> at := Sim.now sim);
  Network.send net ~src:0 ~dst:1 ();
  ignore (Sim.run sim ());
  Alcotest.(check (float 1e-9)) "arrival time" 0.25 !at

let self_send_zero_delay () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 5.0) () in
  let at = ref (-1.) in
  receive sim net ~node:0 (fun () -> at := Sim.now sim);
  Network.send net ~src:0 ~dst:0 ();
  ignore (Sim.run sim ());
  Alcotest.(check (float 1e-9)) "no delay to self" 0. !at

let constant_preserves_fifo () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.1) () in
  let log = ref [] in
  receive sim net ~node:1 (fun m -> log := m :: !log);
  for i = 1 to 5 do
    Network.send net ~src:0 ~dst:1 i
  done;
  ignore (Sim.run sim ());
  Alcotest.(check (list int)) "fifo under constant latency" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let link_latency_override () =
  let sim = Sim.create () in
  let override ~src ~dst =
    if src = 0 && dst = 1 then Some (Latency.Constant 1.0) else None
  in
  let net =
    Network.create sim ~size:3 ~latency:(Latency.Constant 0.1)
      ~link_latency:override ()
  in
  let t01 = ref 0. and t02 = ref 0. in
  receive sim net ~node:1 (fun () -> t01 := Sim.now sim);
  receive sim net ~node:2 (fun () -> t02 := Sim.now sim);
  Network.send net ~src:0 ~dst:1 ();
  Network.send net ~src:0 ~dst:2 ();
  ignore (Sim.run sim ());
  Alcotest.(check (float 1e-9)) "overridden link" 1.0 !t01;
  Alcotest.(check (float 1e-9)) "default link" 0.1 !t02

let message_accounting () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:3 ~latency:(Latency.Constant 0.) () in
  for node = 0 to 2 do
    receive sim net ~node ignore
  done;
  Network.send net ~src:0 ~dst:1 ();
  Network.send net ~src:0 ~dst:1 ();
  Network.send net ~src:1 ~dst:2 ();
  Network.send net ~src:2 ~dst:2 ();
  ignore (Sim.run sim ());
  checki "total" 4 (Network.messages_sent net);
  checki "remote" 3 (Network.remote_messages_sent net)

(* [messages_delivered] counts copies landing in a mailbox, not send
   attempts: a message still in flight when the run's horizon hits must not
   be counted. Regression for the send-time increment bug. *)
let delivered_counts_at_delivery () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 1.0) () in
  receive sim net ~node:1 ignore;
  Network.send net ~src:0 ~dst:1 ();
  (* Stop before the 1.0s delivery: sent but in flight. *)
  ignore (Sim.run sim ~until:0.5 ());
  checki "sent immediately" 1 (Network.messages_sent net);
  checki "in flight, not delivered" 0 (Network.messages_delivered net);
  (* Let the delivery event run. *)
  ignore (Sim.run sim ());
  checki "delivered on arrival" 1 (Network.messages_delivered net)

(* Same-tick deliveries are one event per copy, and the observable
   schedule is the one batching used to keep: per-link FIFO order, one
   executed event per delivered copy, and the same count whether the sends
   share an instant or not. *)
let batching_preserves_fifo () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:3 ~latency:(Latency.Constant 0.1) () in
  let log = ref [] in
  for node = 1 to 2 do
    receive sim net ~node (fun m -> log := (node, m) :: !log)
  done;
  (* Five same-tick sends to node 1 interleaved with one to node 2. *)
  for i = 1 to 3 do
    Network.send net ~src:0 ~dst:1 i
  done;
  Network.send net ~src:0 ~dst:2 99;
  for i = 4 to 5 do
    Network.send net ~src:0 ~dst:1 i
  done;
  ignore (Sim.run sim ());
  let to1 = List.rev_map snd (List.filter (fun (n, _) -> n = 1) !log) in
  Alcotest.(check (list int)) "fifo to node 1" [ 1; 2; 3; 4; 5 ] to1;
  checki "node 2 got its copy" 1
    (List.length (List.filter (fun (n, _) -> n = 2) !log));
  (* One delivery per copy, and one drain per receiver: each takes the
     copies queued behind its first. *)
  checki "one event per copy" (6 + 2) (Sim.events_executed sim);
  let sim2 = Sim.create () in
  let net2 = Network.create sim2 ~size:3 ~latency:(Latency.Constant 0.1) () in
  for node = 1 to 2 do
    receive sim2 net2 ~node ignore
  done;
  (* Same traffic from a script that waits zero between sends, so no two
     sends share an event: the same events per copy, plus the script's
     start and two events for each of its six waits. *)
  Script.run sim2
    (List.concat_map
       (fun (dst, i) -> Script.[ Do (fun () -> Network.send net2 ~src:0 ~dst i); Wait 0. ])
       [ (1, 1); (1, 2); (1, 3); (2, 99); (1, 4); (1, 5) ]);
  ignore (Sim.run sim2 ());
  checki "same events per copy apart" (Sim.events_executed sim + 1 + (6 * 2))
    (Sim.events_executed sim2)

(* A remote copy costs its latency sample, the one closure of its
   delivery event and the clock that event sets: no batch record, list or
   option box. One message is in flight at a time: node 1's inbox is
   drained by callbacks, and each drain sends the next message, so every
   copy is a delivery event of its own at a distinct instant. *)
(* Minor words per remote send and its delivery, through [filter] when
   one is given. *)
let send_words ?filter () =
  let n = 10_000 in
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Exponential 0.001) () in
  Option.iter (Network.set_filter net) filter;
  let inbox = Network.inbox net ~node:1 in
  let sent = ref 0 and taken = ref 0 in
  let rec drain () =
    while Simul.Mailbox.length inbox > 0 do
      taken := !taken + Simul.Mailbox.take inbox
    done;
    if !sent < n then begin
      incr sent;
      Network.send net ~src:0 ~dst:1 !sent
    end;
    Simul.Mailbox.on_arrival inbox arrival
  and arrival () = Sim.schedule sim ~delay:0. drain in
  drain ();
  (* The first delivery allocates the inbox's ring. *)
  ignore (Sim.run sim ~until:0.05 ());
  let mark = !sent in
  let before = Gc.minor_words () in
  ignore (Sim.run sim ());
  let words = (Gc.minor_words () -. before) /. float_of_int (n - mark) in
  checki "every message taken" (n * (n + 1) / 2) !taken;
  words

let remote_send_cost () =
  let words = send_words () in
  if words > 14. then
    Alcotest.failf "a remote send and its delivery allocate %.2f minor words" words

(* A send through a filter allocates only the filter's list of copies
   beyond an unfiltered send: one cell for a pass-through filter. *)
let filtered_send_cost () =
  let plain = send_words () in
  let filtered = send_words ~filter:(fun ~src:_ ~dst:_ ~delay -> [ delay ]) () in
  if filtered -. plain > 3.01 then
    Alcotest.failf "a filtered send allocates %.2f minor words, an unfiltered one %.2f" filtered
      plain

module Reliable = Netsim.Reliable

(* Regression: the delivered_seen dedup table used to keep one record per
   distinct delivered (src, seq, dst) forever — unbounded growth on any
   long-lived reliable channel. Ack-floor pruning must hold it at the
   in-flight window across a long, retransmit-heavy run, without breaking
   dedup (no duplicate deliveries surface) or reliability (every payload
   arrives). *)
let delivered_seen_stays_bounded () =
  let sim = Sim.create ~seed:5 () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.001) () in
  let rng = Random.State.make [| 99 |] in
  (* Drop 20% of copies: every loss forces a retransmission, and acks are
     packets too, so ack loss exercises the out-of-order ack path. *)
  Network.set_filter net (fun ~src:_ ~dst:_ ~delay ->
      if Random.State.float rng 1. < 0.2 then [] else [ delay ]);
  let ch =
    Reliable.create
      ~config:
        {
          Reliable.default_config with
          Reliable.acks = true;
          retransmit = true;
          timeout = 0.01;
        }
      net
  in
  let n = 2000 in
  let got = ref [] in
  let peak_seen = ref 0 and peak_dedup = ref 0 in
  receive sim net ~node:1 (fun p ->
      match (Reliable.accept ch ~node:1 p, p) with
      | true, Reliable.Data { body; _ } ->
          got := body :: !got;
          if Network.delivered_seen_size net > !peak_seen then
            peak_seen := Network.delivered_seen_size net;
          if Reliable.dedup_size ch > !peak_dedup then peak_dedup := Reliable.dedup_size ch
      | _, (Reliable.Data _ | Reliable.Ack _) -> ());
  (* The sender must drain its own endpoint: acks are packets, and only
     [Reliable.accept] consumes them and disarms retransmit timers. *)
  receive sim net ~node:0 (fun p -> ignore (Reliable.accept ch ~node:0 p : bool));
  Script.run sim
    (List.concat_map
       (fun i -> Script.[ Do (fun () -> Reliable.send ch ~src:0 ~dst:1 i); Wait 0.002 ])
       (List.init n succ));
  ignore (Sim.run sim ());
  checkb "retransmit-heavy" true (Reliable.retransmissions ch > 50);
  (* Reliability and dedup both intact: each payload exactly once. *)
  Alcotest.(check (list int))
    "every payload exactly once"
    (List.init n (fun i -> i + 1))
    (List.sort Int.compare !got);
  (* The ack floor marched with the traffic... *)
  checkb "ack floor advanced" true (Reliable.ack_floor ch ~src:0 ~dst:1 > n - 50);
  (* ...so the dedup table tracked the in-flight window, not the run.
     Lost acks stall the floor for a backoff-extended round trip, so the
     in-flight window peaks in the low hundreds here; without pruning the
     table ends the run holding all [n] records and never shrinks. *)
  checkb "seen table bounded at peak" true (!peak_seen < n / 4);
  checkb "seen table near-empty at quiescence" true
    (Network.delivered_seen_size net < 50);
  (* The receiver's own dedup holds only the sequences delivered past a
     loss gap: it grew by one record per delivery, [n] at the end, before
     it kept a contiguous floor per stream. *)
  checkb "dedup bounded at peak" true (!peak_dedup < n / 4);
  checkb "dedup near-empty at quiescence" true (Reliable.dedup_size ch < 50)

(* ------------------------------------------ channel == six-table oracle

   The ring-window channel, with its per-delay deadline queues, against
   the tuple-keyed channel with a timer per packet that it replaced
   (reliable_oracle.ml). Each runs on its own simulation and network with
   the same seed, through the same program of sends and [run ~until]
   segments, under a filter that drops, duplicates and delays copies from
   its own seeded RNG. Everything the channels expose is compared after
   every step, and so are two logs: each retransmission the filter sees,
   as (instant, src, dst), and each data copy a receiver takes, as
   (instant, node, src, seq). A retransmitted copy's sequence is visible
   outside the channel only where the copy lands. *)

module type CHANNEL = sig
  type 'm t

  val create : ?config:Reliable.config -> 'm Reliable.packet Network.t -> 'm t
  val send : 'm t -> src:int -> dst:int -> 'm -> unit
  val accept : 'm t -> node:int -> 'm Reliable.packet -> bool
  val retransmissions : 'm t -> int
  val dup_dropped : 'm t -> int
  val acks_sent : 'm t -> int
  val dedup_size : 'm t -> int
  val unacked_to : 'm t -> dst:int -> int
  val ack_floor : 'm t -> src:int -> dst:int -> int
end

type chan_step = Send of int * int | Run of float

type chan_prog = {
  nodes : int;
  acks : bool;
  retransmit : bool;
  timeout : float;
  loss : float;
  dup : float;
  dup_gap : float;  (** a duplicate lands this long after its original *)
  spike : float;  (** probability of a 30 ms delay spike *)
  outage : (int * int * float * float) option;
      (** every copy sent on [src -> dst] in [[from_, until_)) is lost *)
  seed : int;
  steps : chan_step list;
}

(* The filter both channels see on link [src -> dst]: equal send sequences
   draw equal fates. *)
let lossy_filter p sim ~src ~dst =
  let rng = Random.State.make [| p.seed; src; dst |] in
  fun ~delay ->
    let cut =
      match p.outage with
      | Some (s, d, from_, until_) ->
          s = src && d = dst && Sim.now sim >= from_ && Sim.now sim < until_
      | None -> false
    in
    if cut || Random.State.float rng 1. < p.loss then []
    else
      let delay = if Random.State.float rng 1. < p.spike then delay +. 0.03 else delay in
      if Random.State.float rng 1. < p.dup then [ delay; delay +. p.dup_gap ] else [ delay ]

module Drive (C : CHANNEL) = struct
  type side = {
    sim : Sim.t;
    net : int Reliable.packet Network.t;
    ch : int C.t;
    got : int list array;  (** payloads each node received, newest first *)
    mutable retransmitted : (float * int * int) list;  (** newest first *)
    mutable copies : (float * int * int * int) list;  (** newest first *)
  }

  let start p =
    let sim = Sim.create ~seed:p.seed () in
    let net = Network.create sim ~size:p.nodes ~latency:(Latency.Exponential 0.002) () in
    let ch =
      C.create
        ~config:
          {
            Reliable.acks = p.acks;
            retransmit = p.retransmit;
            timeout = p.timeout;
            backoff = 2.0;
            max_backoff = 0.05;
          }
        net
    in
    let s = { sim; net; ch; got = Array.make p.nodes []; retransmitted = []; copies = [] } in
    (* One RNG per link, so a link's fates do not depend on other links.
       Both channels count a retransmission just before they send it, so
       the send that follows a new count is that retransmission. *)
    let links =
      Array.init (p.nodes * p.nodes) (fun l ->
          lossy_filter p sim ~src:(l / p.nodes) ~dst:(l mod p.nodes))
    in
    let counted = ref 0 in
    Network.set_filter net (fun ~src ~dst ~delay ->
        if C.retransmissions ch > !counted then begin
          counted := C.retransmissions ch;
          s.retransmitted <- (Sim.now sim, src, dst) :: s.retransmitted
        end;
        links.((src * p.nodes) + dst) ~delay);
    for node = 0 to p.nodes - 1 do
      receive sim net ~node (fun p ->
          (match p with
          | Reliable.Data { src; seq; _ } -> s.copies <- (Sim.now sim, node, src, seq) :: s.copies
          | Reliable.Ack _ -> ());
          match (C.accept ch ~node p, p) with
          | true, Reliable.Data { body; _ } -> s.got.(node) <- body :: s.got.(node)
          | _, (Reliable.Data _ | Reliable.Ack _) -> ())
    done;
    s

  (* Sends run at whatever instant the last event left the clock, and the
     two channels run different events: the timer-per-packet channel one
     for each packet acked before its deadline, the deadline queues few. A
     no-op event at each segment's horizon leaves the clock there on both
     sides; each segment starts with the clock at the previous horizon, so
     [dt] from now is exactly [clock +. dt]. *)
  let step s ~clock i = function
    | Send (src, dst) -> C.send s.ch ~src ~dst i
    | Run dt ->
        Sim.schedule s.sim ~delay:dt ignore;
        ignore (Sim.run s.sim ~until:(clock +. dt) () : Sim.outcome)

  let observe p s =
    let nodes = List.init p.nodes Fun.id in
    ( (Array.to_list s.got, s.retransmitted, s.copies),
      [
        C.retransmissions s.ch;
        C.dup_dropped s.ch;
        C.acks_sent s.ch;
        C.dedup_size s.ch;
        Network.messages_delivered s.net;
        Network.delivered_seen_size s.net;
      ]
      @ List.map (fun dst -> C.unacked_to s.ch ~dst) nodes
      @ List.concat_map
          (fun src -> List.map (fun dst -> C.ack_floor s.ch ~src ~dst) nodes)
          nodes )
end

module Ring_side = Drive (Reliable)
module Oracle_side = Drive (Reliable_oracle)

(* The first step after which the two channels' observations differ, and
   the ring side's final state. The program ends with five simulated
   seconds, which settles every program here (retries back off to 50 ms)
   and keeps a channel that retransmits forever from hanging the test. *)
let channel_divergence p =
  let a = Ring_side.start p and b = Oracle_side.start p in
  let rec go i clock = function
    | [] -> None
    | st :: rest ->
        Ring_side.step a ~clock i st;
        Oracle_side.step b ~clock i st;
        if Ring_side.observe p a <> Oracle_side.observe p b then Some i
        else go (i + 1) (match st with Run dt -> clock +. dt | Send _ -> clock) rest
  in
  (go 0 0. (p.steps @ [ Run 5. ]), a)

let pp_prog p =
  Printf.sprintf
    "nodes=%d acks=%b retransmit=%b timeout=%g loss=%g dup=%g gap=%g spike=%g outage=%s seed=%d \
     steps=[%s]"
    p.nodes p.acks p.retransmit p.timeout p.loss p.dup p.dup_gap p.spike
    (match p.outage with
    | Some (s, d, f, u) -> Printf.sprintf "%d->%d@%g:%g" s d f u
    | None -> "-")
    p.seed
    (String.concat "; "
       (List.map
          (function
            | Send (s, d) -> Printf.sprintf "%d->%d" s d
            | Run dt -> Printf.sprintf "run %g" dt)
          p.steps))

let gen_prog =
  QCheck.Gen.(
    let* nodes = int_range 2 4 in
    let node = int_bound (nodes - 1) in
    let* acks = frequencyl [ (3, true); (1, false) ] in
    let* retransmit = bool in
    let* timeout = oneofl [ 0.002; 0.005; 0.01 ] in
    let* loss = oneofl [ 0.; 0.1; 0.3 ] in
    let* dup = oneofl [ 0.; 0.2; 0.5 ] in
    let* dup_gap = oneofl [ 0.; 0.001; 0.05 ] in
    let* spike = oneofl [ 0.; 0.2 ] in
    let* outage =
      opt ~ratio:0.3
        (map2
           (fun (s, d) (f, len) -> (s, d, f, f +. len))
           (pair node node)
           (pair (oneofl [ 0.; 0.01 ]) (oneofl [ 0.02; 0.1 ])))
    in
    let* seed = int_bound 10_000 in
    let+ steps =
      list_size (int_range 1 60)
        (frequency
           [
             (4, map2 (fun s d -> Send (s, d)) node node);
             (1, map (fun dt -> Run dt) (oneofl [ 0.; 0.001; 0.003; 0.01; 0.04 ]));
           ])
    in
    { nodes; acks; retransmit; timeout; loss; dup; dup_gap; spike; outage; seed; steps })

let channel_oracle_property =
  QCheck.Test.make ~name:"ring channel == six-table oracle" ~count:500
    (QCheck.make ~print:pp_prog gen_prog) (fun p ->
      match fst (channel_divergence p) with
      | None -> true
      | Some i -> QCheck.Test.fail_reportf "observations differ after step %d" i)

let quiet =
  {
    nodes = 2;
    acks = true;
    retransmit = true;
    timeout = 0.005;
    loss = 0.;
    dup = 0.;
    dup_gap = 0.;
    spike = 0.;
    outage = None;
    seed = 3;
    steps = [];
  }

(* Forty packets sent into a 0.2 s outage of their link stay unacked at
   once, five times the ring's initial capacity of eight, so the ring
   doubles while its window is mid-ring (ten packets already passed);
   every one is delivered once the link heals. *)
let channel_ring_growth () =
  let p =
    {
      quiet with
      loss = 0.1;
      outage = Some (0, 1, 0.05, 0.25);
      steps =
        List.init 10 (fun _ -> Send (0, 1))
        @ [ Run 0.06 ]
        @ List.concat (List.init 40 (fun _ -> [ Send (0, 1); Send (1, 0); Run 0.001 ]));
    }
  in
  let divergence, side = channel_divergence p in
  checkb "same observations" true (divergence = None);
  checki "node 1 got all fifty" 50 (List.length side.Ring_side.got.(1));
  checki "nothing left unacked" 0 (Reliable.unacked_to side.Ring_side.ch ~dst:1)

(* Every copy is duplicated 50 ms later, long after the original was acked
   and its delivery record pruned, so the straggler is counted again by the
   network (the documented recount) and dropped by the receiver. Its
   recount leaves a record behind that no floor advance removes. *)
let channel_straggler_recount () =
  let p = { quiet with dup = 1.; dup_gap = 0.05; steps = [ Send (0, 1) ] } in
  let divergence, side = channel_divergence p in
  checkb "same observations" true (divergence = None);
  checki "straggler dropped" 1 (Reliable.dup_dropped side.Ring_side.ch);
  (* Two data copies, each acked twice (every copy is duplicated). *)
  checki "straggler recounted" 6 (Network.messages_delivered side.Ring_side.net);
  checki "the recount's record" 1 (Network.delivered_seen_size side.Ring_side.net)

(* An acked send costs what a raw one does plus at most the ring slot's
   share: the filter drops every copy and retransmission is off, so only
   [send] itself allocates. *)
let acked_send_cost () =
  let n = 10_000 in
  let words_per_send ~acks =
    let sim = Sim.create () in
    let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.001) () in
    Network.set_filter net (fun ~src:_ ~dst:_ ~delay:_ -> []);
    let ch =
      Reliable.create ~config:{ Reliable.default_config with Reliable.acks; retransmit = false } net
    in
    (* The first send allocates the source's row and the stream. *)
    Reliable.send ch ~src:0 ~dst:1 0;
    let before = Gc.minor_words () in
    for i = 1 to n do
      Reliable.send ch ~src:0 ~dst:1 i
    done;
    let words = (Gc.minor_words () -. before) /. float_of_int n in
    checki "every send counted" (if acks then n + 1 else 0) (Reliable.unacked_to ch ~dst:1);
    words
  in
  let raw = words_per_send ~acks:false and acked = words_per_send ~acks:true in
  if acked -. raw > 2. then
    Alcotest.failf "an acked send allocates %.2f minor words, a raw one %.2f" acked raw

(* Retransmission arms no timer of its own. The link drops every copy, so
   every packet stays armed, and a send with retransmission on allocates
   within a word of one with it off: its deadline is four slots in the
   first level's arrays, with no closure. *)
let retransmit_send_cost () =
  let n = 10_000 in
  let words_per_send ~retransmit =
    let sim = Sim.create () in
    let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.001) () in
    Network.set_filter net (fun ~src:_ ~dst:_ ~delay:_ -> []);
    let ch =
      Reliable.create
        ~config:{ Reliable.default_config with Reliable.acks = true; retransmit }
        net
    in
    (* The first send allocates the source's row and the stream. *)
    Reliable.send ch ~src:0 ~dst:1 0;
    let before = Gc.minor_words () in
    for i = 1 to n do
      Reliable.send ch ~src:0 ~dst:1 i
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let off = words_per_send ~retransmit:false and on = words_per_send ~retransmit:true in
  if on -. off > 1. then
    Alcotest.failf "a send allocates %.2f minor words with retransmission on, %.2f off" on off

(* Every packet of a lossless burst is acked before its deadline. The
   burst runs the deliveries, acks and wakes it runs with retransmission
   off, plus one deadline event for the level's oldest packet, which finds
   it acked, and none for the rest. *)
let acked_burst_events () =
  let n = 200 in
  let events ~retransmit =
    let sim = Sim.create () in
    let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.001) () in
    let ch =
      Reliable.create
        ~config:{ Reliable.default_config with Reliable.acks = true; retransmit }
        net
    in
    for node = 0 to 1 do
      receive sim net ~node (fun p -> ignore (Reliable.accept ch ~node p : bool))
    done;
    for i = 1 to n do
      Reliable.send ch ~src:0 ~dst:1 i
    done;
    ignore (Sim.run sim () : Sim.outcome);
    checki "every packet acked" 0 (Reliable.unacked_to ch ~dst:1);
    checki "nothing retransmitted" 0 (Reliable.retransmissions ch);
    Sim.events_executed sim
  in
  let off = events ~retransmit:false and on = events ~retransmit:true in
  if on - off > 1 then
    Alcotest.failf "a lossless burst of %d sends ran %d deadline events" n (on - off)

let max_backoff_rejected () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.001) () in
  List.iter
    (fun max_backoff ->
      Alcotest.check_raises
        (Printf.sprintf "max_backoff %g" max_backoff)
        (Invalid_argument
           "Reliable.create: timeout and max_backoff must be positive and backoff >= 1")
        (fun () ->
          ignore
            (Reliable.create
               ~config:{ Reliable.default_config with Reliable.acks = true; max_backoff }
               net
              : unit Reliable.t)))
    [ 0.; -1. ]

let zero_size_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "size 0"
    (Invalid_argument "Network.create: size must be positive") (fun () ->
      ignore
        (Network.create sim ~size:0 ~latency:(Latency.Constant 0.)
           () : unit Network.t))

let out_of_range_nodes () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.) () in
  Alcotest.check_raises "bad dst"
    (Invalid_argument "Network.send: node 7 out of range") (fun () ->
      Network.send net ~src:0 ~dst:7 ())

let latency_means () =
  Alcotest.(check (float 1e-9)) "constant" 0.5 (Latency.mean (Latency.Constant 0.5));
  Alcotest.(check (float 1e-9)) "uniform" 0.3
    (Latency.mean (Latency.Uniform (0.1, 0.5)));
  Alcotest.(check (float 1e-9)) "exp" 0.2 (Latency.mean (Latency.Exponential 0.2))

let sample_nonnegative =
  QCheck.Test.make ~name:"latency samples are nonnegative" ~count:300
    QCheck.(triple (float_range (-1.) 1.) (float_range 0. 1.) (float_range 0. 1.))
    (fun (a, b, c) ->
      let rng = Random.State.make [| 11 |] in
      List.for_all
        (fun model -> Latency.sample model rng >= 0.)
        [ Latency.Constant a; Latency.Uniform (a, b); Latency.Exponential c ])

let uniform_within_bounds =
  QCheck.Test.make ~name:"uniform samples stay in [lo, hi]" ~count:200
    QCheck.(pair (float_range 0. 5.) (float_range 0. 5.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      let rng = Random.State.make [| 7 |] in
      let model = Latency.Uniform (lo, hi) in
      List.for_all
        (fun _ ->
          let x = Latency.sample model rng in
          x >= lo -. 1e-12 && x <= hi +. 1e-12)
        (List.init 50 Fun.id))

let exponential_mean_sanity () =
  let rng = Random.State.make [| 3 |] in
  let model = Latency.Exponential 0.1 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Latency.sample model rng
  done;
  let mean = !sum /. float_of_int n in
  checkb "empirical mean near 0.1" true (mean > 0.09 && mean < 0.11)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ sample_nonnegative; uniform_within_bounds ]

let () =
  Alcotest.run "netsim"
    [
      ( "network",
        [
          Alcotest.test_case "delivery" `Quick delivery;
          Alcotest.test_case "constant latency timing" `Quick
            constant_latency_timing;
          Alcotest.test_case "self send zero delay" `Quick self_send_zero_delay;
          Alcotest.test_case "fifo under constant latency" `Quick
            constant_preserves_fifo;
          Alcotest.test_case "link latency override" `Quick
            link_latency_override;
          Alcotest.test_case "message accounting" `Quick message_accounting;
          Alcotest.test_case "batching preserves fifo" `Quick
            batching_preserves_fifo;
          Alcotest.test_case "remote send cost" `Quick remote_send_cost;
          Alcotest.test_case "filtered send cost" `Quick filtered_send_cost;
          Alcotest.test_case "delivered_seen stays bounded" `Quick
            delivered_seen_stays_bounded;
          Alcotest.test_case "delivered counts at delivery" `Quick
            delivered_counts_at_delivery;
          Alcotest.test_case "out of range" `Quick out_of_range_nodes;
          Alcotest.test_case "zero size rejected" `Quick zero_size_rejected;
        ] );
      ( "channel",
        [
          QCheck_alcotest.to_alcotest channel_oracle_property;
          Alcotest.test_case "ring growth" `Quick channel_ring_growth;
          Alcotest.test_case "straggler recount" `Quick channel_straggler_recount;
          Alcotest.test_case "acked send cost" `Quick acked_send_cost;
          Alcotest.test_case "retransmit send cost" `Quick retransmit_send_cost;
          Alcotest.test_case "acked burst events" `Quick acked_burst_events;
          Alcotest.test_case "max_backoff rejected" `Quick max_backoff_rejected;
        ] );
      ( "latency",
        [
          Alcotest.test_case "means" `Quick latency_means;
          Alcotest.test_case "exponential mean sanity" `Quick
            exponential_mean_sanity;
        ]
        @ qsuite );
    ]
