(* Tests for the network substrate and latency models. *)

module Sim = Simul.Sim
module Network = Netsim.Network
module Latency = Netsim.Latency

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let delivery () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.1) () in
  let got = ref None in
  Sim.spawn sim ~daemon:true (fun () -> got := Some (Network.recv net ~node:1));
  Network.send net ~src:0 ~dst:1 "hello";
  ignore (Sim.run sim ());
  checkb "received" true (!got = Some "hello")

let constant_latency_timing () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.25) () in
  let at = ref 0. in
  Sim.spawn sim ~daemon:true (fun () ->
      ignore (Network.recv net ~node:1);
      at := Sim.now sim);
  Network.send net ~src:0 ~dst:1 ();
  ignore (Sim.run sim ());
  Alcotest.(check (float 1e-9)) "arrival time" 0.25 !at

let self_send_zero_delay () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 5.0) () in
  let at = ref (-1.) in
  Sim.spawn sim ~daemon:true (fun () ->
      ignore (Network.recv net ~node:0);
      at := Sim.now sim);
  Network.send net ~src:0 ~dst:0 ();
  ignore (Sim.run sim ());
  Alcotest.(check (float 1e-9)) "no delay to self" 0. !at

let constant_preserves_fifo () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 0.1) () in
  let log = ref [] in
  Sim.spawn sim ~daemon:true (fun () ->
      let rec loop () =
        log := Network.recv net ~node:1 :: !log;
        loop ()
      in
      loop ());
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
  Sim.spawn sim ~daemon:true (fun () ->
      ignore (Network.recv net ~node:1);
      t01 := Sim.now sim);
  Sim.spawn sim ~daemon:true (fun () ->
      ignore (Network.recv net ~node:2);
      t02 := Sim.now sim);
  Network.send net ~src:0 ~dst:1 ();
  Network.send net ~src:0 ~dst:2 ();
  ignore (Sim.run sim ());
  Alcotest.(check (float 1e-9)) "overridden link" 1.0 !t01;
  Alcotest.(check (float 1e-9)) "default link" 0.1 !t02

let message_accounting () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:3 ~latency:(Latency.Constant 0.) () in
  for node = 0 to 2 do
    Sim.spawn sim ~daemon:true (fun () ->
        let rec loop () =
          ignore (Network.recv net ~node);
          loop ()
        in
        loop ())
  done;
  Network.send net ~src:0 ~dst:1 ();
  Network.send net ~src:0 ~dst:1 ();
  Network.send net ~src:1 ~dst:2 ();
  Network.send net ~src:2 ~dst:2 ();
  ignore (Sim.run sim ());
  checki "total" 4 (Network.messages_sent net);
  checki "remote" 3 (Network.remote_messages_sent net);
  checkb "link counts" true
    (Network.link_counts net
    = [ ((0, 1), 2); ((1, 2), 1); ((2, 2), 1) ])

(* [messages_delivered] counts copies landing in a mailbox, not send
   attempts: a message still in flight when the run's horizon hits must not
   be counted. Regression for the send-time increment bug. *)
let delivered_counts_at_delivery () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:2 ~latency:(Latency.Constant 1.0) () in
  Sim.spawn sim ~daemon:true (fun () ->
      let rec loop () =
        ignore (Network.recv net ~node:1);
        loop ()
      in
      loop ());
  Network.send net ~src:0 ~dst:1 ();
  (* Stop before the 1.0s delivery: sent but in flight. *)
  ignore (Sim.run sim ~until:0.5 ());
  checki "sent immediately" 1 (Network.messages_sent net);
  checki "in flight, not delivered" 0 (Network.messages_delivered net);
  (* Let the delivery event run. *)
  ignore (Sim.run sim ());
  checki "delivered on arrival" 1 (Network.messages_delivered net)

(* Same-tick deliveries to one destination coalesce into a single drain
   event, but the observable schedule must be untouched: per-link FIFO
   order, per-copy event accounting (the drain tallies one executed event
   per coalesced copy), and delivery times all match the one-closure-per-
   copy behaviour this replaced. *)
let batching_preserves_fifo () =
  let sim = Sim.create () in
  let net = Network.create sim ~size:3 ~latency:(Latency.Constant 0.1) () in
  let log = ref [] in
  for node = 1 to 2 do
    Sim.spawn sim ~daemon:true (fun () ->
        let rec loop () =
          (* Bind before consing: [!log] must be read after the recv
             suspension, or a resumed fiber writes back a stale snapshot. *)
          let m = Network.recv net ~node in
          log := (node, m) :: !log;
          loop ()
        in
        loop ())
  done;
  (* Five same-tick sends to node 1 interleaved with one to node 2: the
     run to node 1 before the dst switch coalesces; the switch starts a
     fresh batch. *)
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
  checkb "some deliveries coalesced" true (Network.coalesced_deliveries net > 0);
  (* Event accounting is per-copy, exactly as if nothing had coalesced. *)
  let sim2 = Sim.create () in
  let net2 = Network.create sim2 ~size:3 ~latency:(Latency.Constant 0.1) () in
  for node = 1 to 2 do
    Sim.spawn sim2 ~daemon:true (fun () ->
        let rec loop () =
          ignore (Network.recv net2 ~node);
          loop ()
        in
        loop ())
  done;
  (* Same traffic, but forced un-coalesced: a yield between sends moves
     each send to its own event, so every delivery schedules alone. *)
  Sim.spawn sim2 (fun () ->
      for i = 1 to 3 do
        Network.send net2 ~src:0 ~dst:1 i;
        Sim.yield sim2
      done;
      Network.send net2 ~src:0 ~dst:2 99;
      Sim.yield sim2;
      for i = 4 to 5 do
        Network.send net2 ~src:0 ~dst:1 i;
        Sim.yield sim2
      done);
  ignore (Sim.run sim2 ());
  checki "no coalescing without same-tick sends" 0
    (Network.coalesced_deliveries net2)

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
  Sim.spawn sim ~daemon:true (fun () ->
      let rec loop () =
        let m = Reliable.recv ch ~node:1 in
        got := m :: !got;
        if Network.delivered_seen_size net > !peak_seen then
          peak_seen := Network.delivered_seen_size net;
        if Reliable.dedup_size ch > !peak_dedup then
          peak_dedup := Reliable.dedup_size ch;
        loop ()
      in
      loop ());
  (* The sender must drain its own endpoint: acks are packets, and only
     [Reliable.recv] consumes them and disarms retransmit timers. *)
  Sim.spawn sim ~daemon:true (fun () ->
      ignore (Reliable.recv ch ~node:0 : int));
  Sim.spawn sim (fun () ->
      for i = 1 to n do
        Reliable.send ch ~src:0 ~dst:1 i;
        Sim.sleep sim 0.002
      done);
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
          Alcotest.test_case "delivered_seen stays bounded" `Quick
            delivered_seen_stays_bounded;
          Alcotest.test_case "delivered counts at delivery" `Quick
            delivered_counts_at_delivery;
          Alcotest.test_case "out of range" `Quick out_of_range_nodes;
          Alcotest.test_case "zero size rejected" `Quick zero_size_rejected;
        ] );
      ( "latency",
        [
          Alcotest.test_case "means" `Quick latency_means;
          Alcotest.test_case "exponential mean sanity" `Quick
            exponential_mean_sanity;
        ]
        @ qsuite );
    ]
