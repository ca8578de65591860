module Mailbox = Simul.Mailbox

(* A dedicated side network: heartbeats never share an inbox with protocol
   traffic (the coordinator reads its protocol inbox only inside a wait),
   and fault plans can target the heartbeat class separately from protocol
   messages. The payload is the sender id — real heartbeats carry no
   protocol state in this design; liveness is inferred from arrival times
   alone. *)
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

let serve t f =
  Mailbox.serve (Network.sim t.net) (Network.inbox t.net ~node:t.monitor) ~name:"hb-monitor"
    (fun src next ->
      t.received <- t.received + 1;
      f src;
      next ())

let sent t = t.sent
let received t = t.received
let dropped t = Network.messages_dropped t.net
