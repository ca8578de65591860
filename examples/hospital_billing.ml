(* Hospital billing (paper §1, Figure 1): why coordination-free execution
   gives wrong answers, and how 3V fixes it without global synchronization.

   We run the same front-end workload — visits charging several departments,
   inquiries reading a patient's full balance — against the
   no-coordination baseline and against 3V, then let the atomic-visibility
   checker count "partial charge" anomalies (a customer seeing only part of
   a visit's charges on their bill).

   Run with:  dune exec examples/hospital_billing.exe *)

module Sim = Simul.Sim

let departments = 4

let workload =
  Workload.Hospital.generator
    {
      (Workload.Hospital.default ~nodes:departments) with
      Workload.Hospital.front_end = true (* Figure 1's front-end fan-out *);
      visit_fanout = 3;
      read_ratio = 0.3;
      arrival_rate = 500.;
      patients = 40;
      post_delay = 0.01 (* charges are posted a little late, as in reality *);
    }

let setup =
  { Harness.Runner.default_setup with Harness.Runner.duration = 2.0; settle = 3.0 }

let report (outcome : Harness.Runner.outcome) =
  let atom = Harness.Runner.atomicity outcome in
  Printf.printf "%-16s committed=%-5d partial-charge anomalies=%-4d%s\n"
    outcome.Harness.Runner.engine_name outcome.Harness.Runner.committed
    atom.Checker.Atomicity.partial_reads
    (if Checker.Atomicity.clean atom then "  (every inquiry atomic)" else "");
  atom.Checker.Atomicity.partial_reads

let () =
  (* Baseline: no coordination — fast, but inquiries can catch a visit's
     charges half-applied across departments. *)
  let sim = Sim.create ~seed:7 () in
  let nocoord =
    Baselines.Manual_versioning.create sim
      {
        (Baselines.Manual_versioning.default_config ~nodes:departments) with
        schedule = Unversioned;
      }
  in
  let bad =
    report
      (Harness.Runner.drive sim
         (Baselines.Manual_versioning.packed nocoord)
         workload setup)
  in

  (* 3V: updates commute locally, reads use the previous version, a
     coordinator advances versions every 100 ms without ever blocking a
     user transaction. *)
  let sim = Sim.create ~seed:7 () in
  let engine =
    Threev.Engine.create sim
      {
        (Threev.Engine.default_config ~nodes:departments) with
        Threev.Engine.policy = Threev.Policy.Periodic 0.1;
        latency = Netsim.Latency.Exponential 0.003;
      }
      ()
  in
  let good =
    report
      (Harness.Runner.drive sim (Threev.Engine.packed engine) workload setup)
  in
  Printf.printf
    "\nno-coordination produced %d partial bills; 3V produced %d, after %d\n\
     version advancements that no user transaction ever waited for.\n"
    bad good
    (Threev.Engine.advancements_completed engine)
