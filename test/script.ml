(* A test's driving script as kernel callbacks: steps separated by waits,
   run as a [Sim.after] chain from an event queued at the current
   instant. A [Wait d] takes [Sim.after]'s two events, so a script runs on
   exactly the events a process that ran the same steps and slept each
   wait took: a start event, then two per wait. A step that raises
   propagates out of [Sim.run]. *)

module Sim = Simul.Sim

type step = Do of (unit -> unit) | Wait of float

let run sim steps =
  let rec go = function
    | [] -> ()
    | Do f :: rest ->
        f ();
        go rest
    | Wait d :: rest -> Sim.after sim d (fun () -> go rest)
  in
  Sim.schedule sim ~delay:0. (fun () -> go steps)
