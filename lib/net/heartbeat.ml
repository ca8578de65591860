module Sim = Simul.Sim

(* A dedicated side network: heartbeats never share an inbox with protocol
   traffic (the coordinator's protocol endpoint has a single consumer that
   parks between advancements), and fault plans can target the heartbeat
   class separately from protocol messages. The payload is the sender id —
   real heartbeats carry no protocol state in this design; liveness is
   inferred from arrival times alone. *)
type t = {
  net : int Network.t;
  monitor : int;
  mutable sent : int;
  mutable received : int;
}

let create sim ~size ~monitor ~latency () =
  if monitor < 0 || monitor >= size then
    invalid_arg "Heartbeat.create: monitor endpoint out of range";
  {
    net = Network.create sim ~size ~latency ();
    monitor;
    sent = 0;
    received = 0;
  }

let network t = t.net

let beat t ~node =
  t.sent <- t.sent + 1;
  Network.send t.net ~src:node ~dst:t.monitor node

let recv t =
  let src = Network.recv t.net ~node:t.monitor in
  t.received <- t.received + 1;
  src

let sent t = t.sent
let received t = t.received
let dropped t = Network.messages_dropped t.net
