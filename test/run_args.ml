(* The scenario `threev_sim run ARGS` parses to, through the CLI's own
   cmdliner term — what a pasted reproducer line runs. *)
let parse args =
  match
    Cmdliner.Cmd.eval_value
      ~argv:(Array.of_list ("run" :: args))
      (Cmdliner.Cmd.v (Cmdliner.Cmd.info "run") Cli_specs.run_term)
  with
  | Ok (`Ok sc) -> sc
  | _ -> Alcotest.failf "run %s did not parse" (String.concat " " args)
