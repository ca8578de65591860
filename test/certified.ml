(* The assertion the suites that drive whole runs share: the run committed
   something, and {!Harness.Certify.run} passes every check on it —
   settled included. Pass the 3V [engine] to add version reads and replay
   against its stores. *)
let check ?engine name (outcome : Harness.Runner.outcome) =
  if outcome.Harness.Runner.committed = 0 then
    Alcotest.failf "%s: nothing committed" name;
  List.iter
    (fun (c : Harness.Certify.check) ->
      if not c.Harness.Certify.ok then
        Alcotest.failf "%s: %s failed: %s" name c.Harness.Certify.check_name
          c.Harness.Certify.detail)
    (Harness.Certify.run ?engine ~unfinished:outcome.Harness.Runner.unfinished
       outcome.Harness.Runner.history)
      .Harness.Certify.checks
