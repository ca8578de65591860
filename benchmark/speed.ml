(* Machine-speed normalisation of wall-clock measurements.

   The benchmark's host is a shared virtual machine whose speed drifts by up
   to 1.6x over seconds to minutes, which no amount of repetition averages
   away. So every timed interval runs a speedometer: a fixed loop of about
   0.5 ms over a 32 KiB array is timed three times before the interval,
   three times after, and at 20 Hz during it from a SIGPROF handler. The
   interval is reported in reference seconds: its wall time, less the
   speedometer's own, scaled by [nominal / mean loop time]. On a machine
   that runs the loop at its nominal speed a reference second is a wall
   second.

   The loop allocates nothing on the OCaml heap (a Bigarray, the unboxed
   [Sys.time], totals kept in a float array). The signal ticks still shift
   when the runtime runs its GC work by a little, so heap figures taken
   under the speedometer move by a few tenths of a percent between runs. *)

(* The loop's time on the machine the benchmark was calibrated on (a 2-vCPU
   Xeon VM) in its fast state. *)
let nominal = 0.0005

let cells = 4096
let buf = lazy (Bigarray.Array1.init Bigarray.int Bigarray.c_layout cells (fun i -> i))

(* Seconds spent in [loop] and the number of runs, since the last reset. *)
let totals = Float.Array.make 2 0.

let loop () =
  let a = Lazy.force buf in
  let t0 = Sys.time () in
  let idx = ref 0 and acc = ref 0 in
  for _ = 1 to 100_000 do
    idx := ((!idx * 1103515245) + 12345 + !acc) land (cells - 1);
    acc := (!acc + Bigarray.Array1.get a !idx) land 0xffff;
    Bigarray.Array1.set a !idx !acc
  done;
  Float.Array.set totals 0 (Float.Array.get totals 0 +. (Sys.time () -. t0));
  Float.Array.set totals 1 (Float.Array.get totals 1 +. 1.)

type reading = {
  wall_s : float;  (** wall seconds, speedometer included *)
  ref_s : float;  (** reference seconds, speedometer excluded *)
  scale : float;  (** reference seconds per wall second during the interval *)
}

(* [measure f] runs [f] under the speedometer. *)
let measure f =
  ignore (Lazy.force buf);
  Float.Array.fill totals 0 2 0.;
  for _ = 1 to 3 do loop () done;
  let before = Float.Array.get totals 0 in
  let previous = Sys.signal Sys.sigprof (Sys.Signal_handle (fun _ -> loop ())) in
  let every period =
    ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = period; it_value = period })
  in
  let t0 = Unix.gettimeofday () in
  every 0.05;
  let r =
    Fun.protect f ~finally:(fun () ->
        every 0.;
        Sys.set_signal Sys.sigprof previous)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let during = Float.Array.get totals 0 -. before in
  for _ = 1 to 3 do loop () done;
  let scale = nominal *. Float.Array.get totals 1 /. Float.Array.get totals 0 in
  (r, { wall_s; ref_s = (wall_s -. during) *. scale; scale })
