module Sim = Simul.Sim
module Mailbox = Simul.Mailbox

type filter = src:int -> dst:int -> delay:float -> float list

type 'm t = {
  simulation : Sim.t;
  inboxes : 'm Mailbox.t array;
  n : int;
  latency : Latency.t;
  link_latency : src:int -> dst:int -> Latency.t option;
  mutable filter : filter option;
  mutable delivery_key : ('m -> int) option;
  delivered_seen : (int, unit) Hashtbl.t;
      (** [(key, dst)] pairs, packed [key * n + dst], already counted in
          [delivered]; pruned by {!forget_delivered} as the reliable
          channel's ack floor advances, so the table tracks the in-flight
          window, not the run *)
  mutable sent : int;
  mutable remote_sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

let create simulation ~size ~latency ?(link_latency = fun ~src:_ ~dst:_ -> None)
    ?(inbox_capacity = 16) () =
  if size <= 0 then invalid_arg "Network.create: size must be positive";
  {
    simulation;
    inboxes = Array.init size (fun _ -> Mailbox.create ~capacity:inbox_capacity ());
    n = size;
    latency;
    link_latency;
    filter = None;
    delivery_key = None;
    delivered_seen = Hashtbl.create 256;
    sent = 0;
    remote_sent = 0;
    delivered = 0;
    dropped = 0;
  }

let size t = t.n
let sim t = t.simulation
let set_filter t f = t.filter <- Some f
let set_delivery_key t f = t.delivery_key <- Some f

let check_node t n ctx =
  if n < 0 || n >= t.n then
    invalid_arg (Printf.sprintf "Network.%s: node %d out of range" ctx n)

(* [delivered] is bumped when the copy actually lands in the destination
   mailbox, so messages still in flight when a run ends are never reported
   as delivered. Messages carrying a delivery key are counted once per
   (key, dst): a retransmission landing after the original — routine under
   group-addressed sends, where a crashed replica's mirrors retransmit until
   it restarts — is the same logical delivery, not a second one. *)
let deliver t ~dst msg =
  (match t.delivery_key with
  | Some keyer ->
      let key = keyer msg in
      if key < 0 then t.delivered <- t.delivered + 1
      else begin
        let seen = (key * t.n) + dst in
        if not (Hashtbl.mem t.delivered_seen seen) then begin
          Hashtbl.add t.delivered_seen seen ();
          t.delivered <- t.delivered + 1
        end
      end
  | None -> t.delivered <- t.delivered + 1);
  Mailbox.send t.inboxes.(dst) msg

(* One kernel event per copy, whose closure is the copy's only
   allocation. *)
let schedule_delivery t ~dst ~delay msg =
  Sim.schedule t.simulation ~delay (fun () -> deliver t ~dst msg)

let send t ~src ~dst msg =
  check_node t src "send";
  check_node t dst "send";
  t.sent <- t.sent + 1;
  if src <> dst then t.remote_sent <- t.remote_sent + 1;
  (* Self-sends have zero base latency (and sample nothing), but still pass
     through the filter so fault plans and delivery accounting see every
     message. *)
  let delay =
    if src = dst then 0.
    else
      let model =
        match t.link_latency ~src ~dst with Some m -> m | None -> t.latency
      in
      Latency.sample model (Sim.rng t.simulation)
  in
  match t.filter with
  | None -> schedule_delivery t ~dst ~delay msg
  | Some f -> (
      match f ~src ~dst ~delay with
      | [] -> t.dropped <- t.dropped + 1
      | copies -> List.iter (fun d -> schedule_delivery t ~dst ~delay:d msg) copies)

let inbox t ~node =
  check_node t node "inbox";
  t.inboxes.(node)

let forget_delivered t ~key ~dst = Hashtbl.remove t.delivered_seen ((key * t.n) + dst)

let delivered_seen_size t = Hashtbl.length t.delivered_seen
let messages_sent t = t.sent
let remote_messages_sent t = t.remote_sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
