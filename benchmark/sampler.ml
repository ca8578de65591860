(* A 1 kHz wall-clock stack sampler and the frame-to-layer classifier.

   [ITIMER_REAL] is used rather than [ITIMER_PROF] because the profiling
   timer ticks at only 250 Hz on the kernels this runs on. The SIGALRM
   handler runs at the next safepoint of the interrupted code and only
   stores the raw call stack; symbolisation happens after the run. *)

(* The layers the sampled shares are reported for, in output order. *)
let layers =
  [ "simul"; "net"; "engine"; "coord"; "counters"; "store"; "txn"; "stats";
    "fault"; "shard"; "repl"; "fd"; "workload"; "harness"; "other" ]

(* Frames of the coordinator fibers in lib/core/engine.ml: a lib/core sample
   whose stack holds one of these is coordinator work. *)
let coord_functions =
  [ "coordinator_loop"; "run_advancement"; "await_quiescence"; "poll_counters";
    "await_acks"; "watchdog_loop"; "coord_recover" ]

(* "Threev__Engine.run_advancement.(fun)" has components
   ["Threev__Engine"; "run_advancement"; "(fun)"]. *)
let has_component name fn = List.mem fn (String.split_on_char '.' name)

(* The directory under lib/ of a source file, if it is one. *)
let lib_dir file =
  match String.split_on_char '/' file with
  | "lib" :: dir :: _ :: _ -> Some dir
  | _ -> None

(* [classify frames] attributes one sample, given its (file, function)
   frames innermost first. The sample goes to the innermost frame under
   lib/, so stdlib and benchmark frames count toward their caller. *)
let classify frames =
  let in_coord () =
    List.exists
      (fun (file, fn) ->
        file = "lib/core/engine.ml" && List.exists (has_component fn) coord_functions)
      frames
  in
  match List.find_opt (fun (file, _) -> lib_dir file <> None) frames with
  | None -> "other"
  | Some (file, _) -> (
      match lib_dir file with
      | Some "core" ->
          if file = "lib/core/counters.ml" then "counters"
          else if in_coord () then "coord"
          else "engine"
      | Some
          (( "simul" | "net" | "store" | "txn" | "stats" | "fault" | "shard"
           | "repl" | "fd" | "workload" | "harness" ) as d) ->
          d
      | _ -> "other")

(* The (file, function) frames of a raw call stack, innermost first;
   inlined frames included, frames without debug information skipped. *)
let frames stack =
  match Printexc.backtrace_slots stack with
  | None -> []
  | Some slots ->
      Array.to_list slots
      |> List.filter_map (fun slot ->
             match Printexc.Slot.location slot with
             | None -> None
             | Some loc ->
                 let fn = Option.value (Printexc.Slot.name slot) ~default:"?" in
                 Some (loc.Printexc.filename, fn))

type profile = {
  samples : int;
  by_layer : (string * int) list;  (** every entry of [layers] *)
  top : (string * string * int) list;
      (** (function, file, self samples) of the innermost lib/ frame,
          most-sampled first *)
}

let profile stacks =
  let layer_counts = Hashtbl.create 16 and fn_counts = Hashtbl.create 64 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0) in
  List.iter
    (fun stack ->
      let fs = frames stack in
      bump layer_counts (classify fs);
      match List.find_opt (fun (file, _) -> lib_dir file <> None) fs with
      | Some (file, fn) -> bump fn_counts (fn, file)
      | None -> ())
    stacks;
  let top =
    Hashtbl.fold (fun (fn, file) n acc -> (fn, file, n) :: acc) fn_counts []
    |> List.sort (fun (f1, _, a) (f2, _, b) ->
           match compare b a with 0 -> compare f1 f2 | c -> c)
  in
  {
    samples = List.length stacks;
    by_layer =
      List.map
        (fun l -> (l, Option.value (Hashtbl.find_opt layer_counts l) ~default:0))
        layers;
    top = List.filteri (fun i _ -> i < 10) top;
  }

(* [with_sampling f] runs [f] with the sampler armed and returns its result
   with the raw stacks taken meanwhile. *)
let with_sampling f =
  let stacks = ref [] in
  let previous =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> stacks := Printexc.get_callstack 256 :: !stacks))
  in
  let tick = { Unix.it_interval = 0.001; it_value = 0.001 } in
  let disarm () =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
    Sys.set_signal Sys.sigalrm previous
  in
  ignore (Unix.setitimer Unix.ITIMER_REAL tick);
  let result = Fun.protect ~finally:disarm f in
  (result, !stacks)
