module Sim = Simul.Sim
module Ivar = Simul.Ivar
module Latency = Netsim.Latency
module Mvstore = Store.Mvstore
module Spec = Txn.Spec
module Op = Txn.Op
module Value = Txn.Value
module Result = Txn.Result
module Engine = Threev.Engine
module Trace = Threev.Trace
module Counters = Threev.Counters

type snapshot = {
  snap_time : float;
  sites : (string * int * int * (string * int list) list) list;
}

type replay = {
  trace : Trace.t;
  snapshots : snapshot list;
  final_counters : (string * int) list;
  advancement_completed : bool;
  read_version_after : int;
  txn_i_committed : bool;
  txn_j_committed : bool;
  reads_saw_version0 : bool;
}

let p = 0
let q = 1
let s = 2
let site_names = [| "p"; "q"; "s" |]

(* Per-link latency schedules, consumed in send order; links not listed (or
   exhausted) fall back to the engine's default latency. The values place
   each message's arrival on the paper's Table 1 timeline. *)
let scripted_links () =
  let schedules : (int * int, float Queue.t) Hashtbl.t = Hashtbl.create 8 in
  let program src dst delays =
    let queue = Queue.create () in
    List.iter (fun d -> Queue.add d queue) delays;
    Hashtbl.replace schedules (src, dst) queue
  in
  let coord = 3 in
  program p q [ 11.5; 1.0; 1.5 ] (* iq; jp completion; iqp completion *);
  program p s [ 3.5 ] (* is *);
  program q p [ 8.5; 8.5; 1.0 ] (* jp; iqp; iq completion *);
  program s p [ 20.5 ] (* is completion, paper row 26 *);
  program coord q [ 0.6 ] (* start-advancement reaches q before tx j *);
  program coord p [ 12.0 ] (* ... reaches p at 21, after jp told it *);
  program coord s [ 19.0 ] (* ... reaches s only at 28 *);
  fun ~src ~dst ->
    match Hashtbl.find_opt schedules (src, dst) with
    | None -> None
    | Some queue -> (
        match Queue.take_opt queue with
        | Some d -> Some (Latency.Constant d)
        | None -> None)

(* Initial state of Figure 2: A,B at p; D,E at q; F at s — all version 0. *)
let preload engine =
  let put node key =
    Mvstore.write_exact (Engine.store engine ~node) ~key:(Store.Key.intern key) ~version:0
      ~init:Value.empty ~f:(fun () () v -> v) () ()
  in
  put p "A";
  put p "B";
  put q "D";
  put q "E";
  put s "F"

let take_snapshot engine time =
  let sites =
    List.map
      (fun node ->
        let store = Engine.store engine ~node in
        let keys = Mvstore.keys store in
        ( site_names.(node),
          Engine.update_version engine ~node,
          Engine.read_version engine ~node,
          List.map (fun k -> (Store.Key.name k, Mvstore.versions_of store ~key:k)) keys ))
      [ p; q; s ]
  in
  { snap_time = time; sites }

let collect_counters engine =
  let out = ref [] in
  List.iter
    (fun node ->
      let cnt = Engine.counters engine ~node in
      List.iter
        (fun v ->
          for other = 0 to 2 do
            let r = Counters.r cnt ~version:v ~dst:other in
            if r > 0 then
              out :=
                ( Printf.sprintf "R%d[%s->%s]" v site_names.(node)
                    site_names.(other),
                  r )
                :: !out;
            let c = Counters.c cnt ~version:v ~src:other in
            if c > 0 then
              out :=
                ( Printf.sprintf "C%d[%s->%s]" v site_names.(other)
                    site_names.(node),
                  c )
                :: !out
          done)
        (Counters.versions cnt))
    [ p; q; s ];
  List.sort compare !out

let run () =
  let sim = Sim.create ~seed:1 () in
  let trace = Trace.create () in
  let cfg =
    {
      (Engine.default_config ~nodes:3) with
      Engine.latency = Latency.Constant 0.2;
      think_time = 0.5;
      poll_interval = 0.5;
    }
  in
  let engine =
    Engine.create sim cfg ~trace ~node_names:site_names
      ~link_latency:(scripted_links ()) ()
  in
  preload engine;
  (* Transaction i (version 1): root at p updates A, spawns iq -> q (which
     updates D and E and spawns iqp -> p updating B) and is -> s (updates F). *)
  let k = Store.Key.intern in
  let iqp = Spec.subtxn p [ Op.Incr (k "B", 1.) ] in
  let iq = Spec.subtxn ~children:[ iqp ] q [ Op.Incr (k "D", 3.); Op.Incr (k "E", 2.) ] in
  let is_ = Spec.subtxn s [ Op.Incr (k "F", 4.) ] in
  let i_root = Spec.subtxn ~children:[ iq; is_ ] p [ Op.Incr (k "A", 5.) ] in
  let spec_i = Spec.make ~id:1 ~label:"i" i_root in
  (* Transaction j (version 2): root at q updates D, spawns jp -> p. *)
  let jp = Spec.subtxn p [ Op.Incr (k "A", 6.) ] in
  let j_root = Spec.subtxn ~children:[ jp ] q [ Op.Incr (k "D", 7.) ] in
  let spec_j = Spec.make ~id:2 ~label:"j" j_root in
  (* Read transactions x (at p, reads A) and y (at q, reads D). *)
  let spec_x = Spec.make ~id:3 ~label:"x" (Spec.subtxn p [ Op.Read (k "A") ]) in
  let spec_y = Spec.make ~id:4 ~label:"y" (Spec.subtxn q [ Op.Read (k "D") ]) in
  let result_i = ref None
  and result_j = ref None
  and result_x = ref None
  and result_y = ref None
  and advancement = ref None in
  let snapshots = ref [] in
  List.iter
    (fun time ->
      Sim.schedule sim ~delay:time (fun () ->
          snapshots := take_snapshot engine time :: !snapshots))
    [ 12.0; 20.0; 28.0 ];
  (* The script: a [Sim.after] chain from an event queued at time 0. *)
  Sim.schedule sim ~delay:0. (fun () ->
      Sim.after sim 1.0 (fun () ->
          result_i := Some (Engine.submit engine spec_i);
          Sim.after sim 6.0 (fun () (* t = 7 *) ->
              result_x := Some (Engine.submit engine spec_x);
              Sim.after sim 2.0 (fun () (* t = 9 *) ->
                  advancement := Some (Engine.advance engine);
                  Sim.after sim 1.0 (fun () (* t = 10 *) ->
                      result_j := Some (Engine.submit engine spec_j);
                      Sim.after sim 7.0 (fun () (* t = 17 *) ->
                          result_y := Some (Engine.submit engine spec_y)))))));
  ignore (Sim.run sim ~until:60.0 ());
  let committed r =
    match !r with
    | Some ivar -> (
        match Ivar.peek ivar with
        | Some res -> Result.committed res
        | None -> false)
    | None -> false
  in
  let read_amount_zero r =
    match !r with
    | Some ivar -> (
        match Ivar.peek ivar with
        | Some res ->
            List.for_all
              (fun (_, (v : Value.t)) ->
                v.Value.amount = 0. && Value.Writers.is_empty v.Value.writers)
              res.Result.reads
        | None -> false)
    | None -> false
  in
  let snapshots =
    List.sort (fun a b -> compare a.snap_time b.snap_time) !snapshots
    @ [ take_snapshot engine (Sim.now sim) ]
  in
  {
    trace;
    snapshots;
    final_counters = collect_counters engine;
    advancement_completed =
      (match !advancement with Some iv -> Ivar.is_full iv | None -> false);
    read_version_after = Engine.read_version engine ~node:p;
    txn_i_committed = committed result_i;
    txn_j_committed = committed result_j;
    reads_saw_version0 = read_amount_zero result_x && read_amount_zero result_y;
  }

let render_trace replay =
  Trace.render replay.trace ~sites:[ "p"; "q"; "s"; "coord" ]

let render_snapshots replay =
  let buf = Buffer.create 512 in
  List.iter
    (fun snap ->
      Buffer.add_string buf
        (Printf.sprintf "-- state at t=%.0f --\n" snap.snap_time);
      List.iter
        (fun (site, vu, vr, keys) ->
          Buffer.add_string buf
            (Printf.sprintf "  site %s (vu=%d, vr=%d): " site vu vr);
          List.iter
            (fun (key, versions) ->
              Buffer.add_string buf
                (Printf.sprintf "%s{%s} " key
                   (String.concat ","
                      (List.map string_of_int (List.rev versions)))))
            keys;
          Buffer.add_char buf '\n')
        snap.sites)
    replay.snapshots;
  Buffer.contents buf
