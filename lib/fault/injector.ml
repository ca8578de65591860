module Sim = Simul.Sim
module Network = Netsim.Network
module Counter_set = Stats.Counter_set

type hooks = {
  mutable h_pause : node:int -> duration:float -> until_:float -> unit;
  mutable h_crash : node:int -> unit;
  mutable h_restart : node:int -> unit;
  mutable h_coord_crash : until_:float -> unit;
  mutable h_coord_restart : unit -> unit;
}

type t = {
  sim : Sim.t;
  rng : Random.State.t;  (** dedicated: fault draws never touch [Sim.rng] *)
  rules : Plan.rule array;
  rule_hits : int array;  (** per-rule matching-delivery counts, for [nth] *)
  hb_rule_hits : int array;
      (** separate [nth] counters for the heartbeat class, so scripted
          protocol rules never consume hits on heartbeat deliveries (and
          vice versa) — protocol schedules are unchanged by enabling
          heartbeats *)
  mutable crash_windows : (int * float * float) list;  (** (node, at, restart) *)
  mutable coord_windows : (float * float) list;  (** (at, restart) *)
  mutable coord_id : int option;
      (** the coordinator's network id, registered by the owning engine so
          coordinator crash windows can drop its traffic *)
  hooks : hooks;
  counters : Counter_set.t;  (** plan events: pauses, crashes, restarts *)
  actions : (int, int ref) Hashtbl.t;  (** per (class, kind, src, dst), keyed by [action_key] *)
}

let noop_pause ~node:_ ~duration:_ ~until_:_ = ()
let noop_node ~node:_ = ()
let noop_coord_crash ~until_:_ = ()
let noop_unit () = ()

(* Fault actions are counted per (class, kind, src, dst) under one int key
   and named only when {!stats} renders them. The key's low 3 bits are
   [class * 4 + kind]: class 0 is protocol traffic, class 1 heartbeats,
   and a kind indexes [kind_names]. *)
let k_drop = 0
let k_delay = 1
let k_dup = 2
let k_crash_drop = 3
let kind_names = [| "drop"; "delay"; "dup"; "crash_drop" |]
let class_prefixes = [| "fault."; "fault.hb_" |]

(* Node ids fit in 29 bits each (a negative id does not), so a packed key
   stays a non-negative int and names one link. *)
let link_bits = 29

let action_key ~cls kind ~src ~dst =
  if (src lor dst) lsr link_bits <> 0 then
    invalid_arg (Printf.sprintf "Fault.Injector: link %d->%d out of range" src dst);
  (((src lsl link_bits) lor dst) lsl 3) lor ((cls * 4) + kind)

let stats t =
  let out = Counter_set.create () in
  Hashtbl.fold (fun key n acc -> (key, !n) :: acc) t.actions []
  |> List.sort compare
  |> List.iter (fun (key, n) ->
         let name = class_prefixes.((key lsr 2) land 1) ^ kind_names.(key land 3) in
         let link = key lsr 3 in
         Counter_set.incr out (name ^ "s") ~by:n ();
         Counter_set.incr out
           (Printf.sprintf "%s[%d->%d]" name (link lsr link_bits)
              (link land ((1 lsl link_bits) - 1)))
           ~by:n ());
  Counter_set.merge t.counters out

let rec in_coord_window (at : float) = function
  | [] -> false
  | (from_, until_) :: rest -> (at >= from_ && at < until_) || in_coord_window at rest

let rec in_crash_window (node : int) (at : float) = function
  | [] -> false
  | (n, from_, until_) :: rest ->
      (n = node && at >= from_ && at < until_) || in_crash_window node at rest

let coord_down t ~at = in_coord_window at t.coord_windows

let down t ~node ~at =
  in_crash_window node at t.crash_windows
  || (match t.coord_id with
     | Some c when c = node -> coord_down t ~at
     | _ -> false)

let down_nodes t ~at =
  List.filter_map
    (fun (n, from_, until_) -> if at >= from_ && at < until_ then Some n else None)
    t.crash_windows
  |> List.sort_uniq Int.compare

let count t ~cls kind ~src ~dst =
  let key = action_key ~cls kind ~src ~dst in
  match Hashtbl.find t.actions key with
  | n -> incr n
  | exception Not_found -> Hashtbl.add t.actions key (ref 1)

let pause t ~node ~at ~duration =
  if duration <= 0. then invalid_arg "Fault.Injector.pause: duration must be positive";
  Counter_set.incr t.counters "fault.pauses" ();
  Sim.schedule t.sim ~delay:(Float.max 0. (at -. Sim.now t.sim)) (fun () ->
      t.hooks.h_pause ~node ~duration ~until_:(Sim.now t.sim +. duration))

let crash t ~node ~at ~restart =
  if restart <= at then
    invalid_arg "Fault.Injector.crash: restart must be after the crash time";
  (* The window is recorded eagerly so the filter drops traffic for it even
     before the scheduled hook fires. *)
  t.crash_windows <- (node, at, restart) :: t.crash_windows;
  Counter_set.incr t.counters "fault.crashes" ();
  let now = Sim.now t.sim in
  Sim.schedule t.sim ~delay:(Float.max 0. (at -. now)) (fun () ->
      t.hooks.h_crash ~node);
  Sim.schedule t.sim ~delay:(Float.max 0. (restart -. now)) (fun () ->
      Counter_set.incr t.counters "fault.restarts" ();
      t.hooks.h_restart ~node)

let coord_crash t ~at ~restart =
  if restart <= at then
    invalid_arg
      "Fault.Injector.coord_crash: restart must be after the crash time";
  (* Same eager-window discipline as node crashes: traffic to and from the
     coordinator is dropped for the whole window even before the scheduled
     hook fires. *)
  t.coord_windows <- (at, restart) :: t.coord_windows;
  Counter_set.incr t.counters "fault.coord_crashes" ();
  let now = Sim.now t.sim in
  Sim.schedule t.sim ~delay:(Float.max 0. (at -. now)) (fun () ->
      t.hooks.h_coord_crash ~until_:restart);
  Sim.schedule t.sim ~delay:(Float.max 0. (restart -. now)) (fun () ->
      Counter_set.incr t.counters "fault.coord_restarts" ();
      t.hooks.h_coord_restart ())

let rule_matches (r : Plan.rule) ~src ~dst ~now =
  (match r.Plan.r_src with Some s -> s = src | None -> true)
  && (match r.Plan.r_dst with Some d -> d = dst | None -> true)
  && ((not r.Plan.r_remote_only) || src <> dst)
  && now >= r.Plan.r_from
  && now < r.Plan.r_until

(* Does rule [idx] fire on this delivery? Scripted rules count the hit in
   the class's own counters; probabilistic ones draw unless certain. *)
let fires t ~hb idx (r : Plan.rule) =
  match r.Plan.r_nth with
  | Some n ->
      let hits = if hb then t.hb_rule_hits else t.rule_hits in
      hits.(idx) <- hits.(idx) + 1;
      hits.(idx) = n
  | None -> r.Plan.r_prob >= 1. || Random.State.float t.rng 1. < r.Plan.r_prob

(* Rules [idx..] applied in order to the copies' [delays]; a dropped
   delivery consults no further rule. *)
let rec apply_rules t ~hb ~cls ~src ~dst ~now idx delays =
  match delays with
  | [] -> []
  | _ when idx = Array.length t.rules -> delays
  | _ ->
      let r = t.rules.(idx) in
      let delays =
        if (hb || not r.Plan.r_hb_only) && rule_matches r ~src ~dst ~now && fires t ~hb idx r
        then
          match r.Plan.r_action with
          | Plan.Drop ->
              count t ~cls k_drop ~src ~dst;
              []
          | Plan.Delay d ->
              count t ~cls k_delay ~src ~dst;
              List.map (fun x -> x +. d) delays
          | Plan.Duplicate gap ->
              count t ~cls k_dup ~src ~dst;
              delays @ List.map (fun x -> x +. gap) delays
        else delays
      in
      apply_rules t ~hb ~cls ~src ~dst ~now (idx + 1) delays

(* Copies that would arrive while the destination is down are lost, each
   counted in order. A lone surviving copy's list is returned as is. *)
let rec arrivals t ~cls ~src ~dst ~now = function
  | [] -> []
  | d :: rest as delays ->
      let arrives = not (down t ~node:dst ~at:(now +. d)) in
      if not arrives then count t ~cls k_crash_drop ~src ~dst;
      let rest' = arrivals t ~cls ~src ~dst ~now rest in
      if not arrives then rest' else if rest' == rest then delays else d :: rest'

(* The shared rule-application core. [hb] selects the message class: the
   protocol filter skips heartbeat-only rules without consuming a random
   draw or an [nth] hit, so a plan whose rules are all heartbeat-scoped
   leaves protocol schedules byte-identical to the fault-free run. The
   heartbeat filter applies every rule — a partition cuts heartbeats too —
   but keeps its own [nth] hit counters. Crash windows silence both
   classes: a crashed node neither sends protocol traffic nor beats. *)
let filter_class t ~hb ~src ~dst ~delay =
  match (t.rules, t.crash_windows, t.coord_windows) with
  | [||], [], [] -> [ delay ]
  | _ ->
      let cls = if hb then 1 else 0 in
      let now = Sim.now t.sim in
      if down t ~node:src ~at:now then begin
        count t ~cls k_crash_drop ~src ~dst;
        []
      end
      else
        arrivals t ~cls ~src ~dst ~now
          (apply_rules t ~hb ~cls ~src ~dst ~now 0 [ delay ])

let filter t ~src ~dst ~delay = filter_class t ~hb:false ~src ~dst ~delay
let filter_hb t ~src ~dst ~delay = filter_class t ~hb:true ~src ~dst ~delay

let install t net =
  Network.set_filter net (fun ~src ~dst ~delay -> filter t ~src ~dst ~delay)

let install_hb t net =
  Network.set_filter net (fun ~src ~dst ~delay -> filter_hb t ~src ~dst ~delay)

let set_node_hooks t ?pause ?crash ?restart () =
  (match pause with Some f -> t.hooks.h_pause <- f | None -> ());
  (match crash with Some f -> t.hooks.h_crash <- f | None -> ());
  match restart with Some f -> t.hooks.h_restart <- f | None -> ()

let set_coord t ~id ?crash ?restart () =
  t.coord_id <- Some id;
  (match crash with Some f -> t.hooks.h_coord_crash <- f | None -> ());
  match restart with Some f -> t.hooks.h_coord_restart <- f | None -> ()

let create sim (plan : Plan.t) =
  let t =
    {
      sim;
      rng = Random.State.make [| plan.Plan.seed; 0xfa017 |];
      rules = Array.of_list plan.Plan.rules;
      rule_hits = Array.make (List.length plan.Plan.rules) 0;
      hb_rule_hits = Array.make (List.length plan.Plan.rules) 0;
      crash_windows = [];
      coord_windows = [];
      coord_id = None;
      hooks =
        {
          h_pause = noop_pause;
          h_crash = noop_node;
          h_restart = noop_node;
          h_coord_crash = noop_coord_crash;
          h_coord_restart = noop_unit;
        };
      counters = Counter_set.create ();
      actions = Hashtbl.create 64;
    }
  in
  List.iter
    (fun (p : Plan.pause) ->
      pause t ~node:p.Plan.pause_node ~at:p.Plan.pause_at
        ~duration:p.Plan.pause_duration)
    plan.Plan.pauses;
  List.iter
    (fun (c : Plan.crash) ->
      crash t ~node:c.Plan.crash_node ~at:c.Plan.crash_at
        ~restart:c.Plan.crash_restart)
    plan.Plan.crashes;
  List.iter
    (fun (c : Plan.coord_crash) ->
      coord_crash t ~at:c.Plan.cc_at ~restart:c.Plan.cc_restart)
    plan.Plan.coord_crashes;
  t
