(* Reference fault filter: the injector's per-delivery filter as it was
   before it dropped its closures, kept as the specification the library's
   filter is compared against (test_fault.ml's filter property). Rules are
   applied by an [Array.iteri] closure over a [ref] of delays, crash
   windows are searched with [List.exists], and surviving copies are
   copied by [List.filter]. [create] records the plan's windows and bumps
   the same counters at the same virtual times as [Fault.Injector.create];
   the engine hooks are left out, since the filter never calls them. *)

module Sim = Simul.Sim
module Plan = Fault.Plan
module Counter_set = Stats.Counter_set

type t = {
  sim : Sim.t;
  rng : Random.State.t;
  rules : Plan.rule array;
  rule_hits : int array;
  hb_rule_hits : int array;
  mutable crash_windows : (int * float * float) list;
  mutable coord_windows : (float * float) list;
  mutable coord_id : int option;
  counters : Counter_set.t;
}

let stats t = t.counters
let set_coord t ~id = t.coord_id <- Some id

let coord_down t ~at =
  List.exists (fun (from_, until_) -> at >= from_ && at < until_) t.coord_windows

let down t ~node ~at =
  List.exists
    (fun (n, from_, until_) -> n = node && at >= from_ && at < until_)
    t.crash_windows
  || (match t.coord_id with
     | Some c when c = node -> coord_down t ~at
     | _ -> false)

let count t name ~src ~dst =
  Counter_set.incr t.counters (name ^ "s") ();
  Counter_set.incr t.counters (Printf.sprintf "%s[%d->%d]" name src dst) ()

let rule_matches (r : Plan.rule) ~src ~dst ~now =
  (match r.Plan.r_src with Some s -> s = src | None -> true)
  && (match r.Plan.r_dst with Some d -> d = dst | None -> true)
  && ((not r.Plan.r_remote_only) || src <> dst)
  && now >= r.Plan.r_from
  && now < r.Plan.r_until

let filter_class t ~hb ~src ~dst ~delay =
  if Array.length t.rules = 0 && t.crash_windows = [] && t.coord_windows = []
  then [ delay ]
  else begin
    let pfx = if hb then "fault.hb_" else "fault." in
    let now = Sim.now t.sim in
    if down t ~node:src ~at:now then begin
      count t (pfx ^ "crash_drop") ~src ~dst;
      []
    end
    else begin
      let delays = ref [ delay ] in
      Array.iteri
        (fun idx r ->
          if
            !delays <> []
            && (hb || not r.Plan.r_hb_only)
            && rule_matches r ~src ~dst ~now
          then begin
            let fire =
              match r.Plan.r_nth with
              | Some n ->
                  let hits = if hb then t.hb_rule_hits else t.rule_hits in
                  hits.(idx) <- hits.(idx) + 1;
                  hits.(idx) = n
              | None ->
                  r.Plan.r_prob >= 1.
                  || Random.State.float t.rng 1. < r.Plan.r_prob
            in
            if fire then
              match r.Plan.r_action with
              | Plan.Drop ->
                  count t (pfx ^ "drop") ~src ~dst;
                  delays := []
              | Plan.Delay d ->
                  count t (pfx ^ "delay") ~src ~dst;
                  delays := List.map (fun x -> x +. d) !delays
              | Plan.Duplicate gap ->
                  count t (pfx ^ "dup") ~src ~dst;
                  delays := !delays @ List.map (fun x -> x +. gap) !delays
          end)
        t.rules;
      List.filter
        (fun d ->
          let arrives = not (down t ~node:dst ~at:(now +. d)) in
          if not arrives then count t (pfx ^ "crash_drop") ~src ~dst;
          arrives)
        !delays
    end
  end

let filter t ~src ~dst ~delay = filter_class t ~hb:false ~src ~dst ~delay
let filter_hb t ~src ~dst ~delay = filter_class t ~hb:true ~src ~dst ~delay

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
      counters = Counter_set.create ();
    }
  in
  let now = Sim.now sim in
  List.iter
    (fun (_ : Plan.pause) -> Counter_set.incr t.counters "fault.pauses" ())
    plan.Plan.pauses;
  List.iter
    (fun (c : Plan.crash) ->
      t.crash_windows <-
        (c.Plan.crash_node, c.Plan.crash_at, c.Plan.crash_restart) :: t.crash_windows;
      Counter_set.incr t.counters "fault.crashes" ();
      Sim.schedule sim ~delay:(Float.max 0. (c.Plan.crash_restart -. now)) (fun () ->
          Counter_set.incr t.counters "fault.restarts" ()))
    plan.Plan.crashes;
  List.iter
    (fun (c : Plan.coord_crash) ->
      t.coord_windows <- (c.Plan.cc_at, c.Plan.cc_restart) :: t.coord_windows;
      Counter_set.incr t.counters "fault.coord_crashes" ();
      Sim.schedule sim ~delay:(Float.max 0. (c.Plan.cc_restart -. now)) (fun () ->
          Counter_set.incr t.counters "fault.coord_restarts" ()))
    plan.Plan.coord_crashes;
  t
