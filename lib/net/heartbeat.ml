module Sim = Simul.Sim
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

(* The monitor's inbox drain, armed like a node's ([Engine.serve]): a
   beat arriving at an idle inbox queues the drain at the current instant,
   the event a monitor process blocked in a receive would wake on, and the
   drain takes every queued beat, then re-arms. *)
let serve t f =
  let sim = Network.sim t.net in
  let inbox = Network.inbox t.net ~node:t.monitor in
  let rec drain () =
    if Mailbox.length inbox = 0 then Mailbox.on_arrival inbox arrival
    else begin
      let src = Mailbox.take inbox in
      t.received <- t.received + 1;
      f src;
      drain ()
    end
  and woken () = try drain () with exn -> Sim.fail sim "hb-monitor" exn
  and arrival () = Sim.schedule sim ~delay:0. woken in
  Mailbox.on_arrival inbox arrival

let sent t = t.sent
let received t = t.received
let dropped t = Network.messages_dropped t.net
