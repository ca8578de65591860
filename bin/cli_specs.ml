(* The `threev_sim run` command line: the cmdliner term that parses a
   {!Harness.Scenario.t}, and the argv pre-scan in threev_sim's main. The
   pre-scan exists for scripting ergonomics: cmdliner's own converter
   failure prints a four-line usage block and exits 124, which reads as a
   timeout to most CI harnesses. The pre-scan runs the fault-flag grammar
   first and turns a malformed spec into one self-contained line on stderr
   and exit code 2 (the conventional usage-error status). *)

open Cmdliner
module Scenario = Harness.Scenario

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* [prevalidate argv] scans for the fault-spec flags (both [--flag V] and
   [--flag=V] forms) and returns the first malformed spec's one-line
   message, or [None] when every occurrence parses. Unknown flags and
   everything else are left to cmdliner. *)
let prevalidate argv =
  let n = Array.length argv in
  let result = ref None in
  for i = 1 to n - 1 do
    if !result = None then
      List.iter
        (fun flag ->
          if !result = None then
            let value =
              if argv.(i) = flag && i + 1 < n then Some argv.(i + 1)
              else
                let pfx = flag ^ "=" in
                if starts_with ~prefix:pfx argv.(i) then
                  Some
                    (String.sub argv.(i) (String.length pfx)
                       (String.length argv.(i) - String.length pfx))
                else None
            in
            match Option.map (Scenario.parse_atom flag) value with
            | Some (Error msg) -> result := Some msg
            | Some (Ok _) | None -> ())
        Scenario.fault_flags
  done;
  !result

let run_term =
  let d = Scenario.default in
  let engine =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun e -> (Scenario.engine_label e, e))
                [ Scenario.E3v; E2pc; E_nocoord; E_manual ]))
          d.engine
      & info [ "engine" ] ~docv:"ENGINE" ~doc:"3v, 2pc, nocoord or manual.")
  in
  let workload =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun w -> (Scenario.workload_label w, w))
                [ Scenario.Hospital; Calls; Pos; Synthetic ]))
          d.workload
      & info [ "workload" ] ~docv:"W" ~doc:"hospital, calls, pos or synthetic.")
  in
  let int_opt name v doc = Arg.(value & opt int v & info [ name ] ~doc) in
  let float_opt name v doc = Arg.(value & opt float v & info [ name ] ~doc) in
  (* One converter for every fault-spec flag: the grammar's parser, and
     its printer for cmdliner's documentation of values. *)
  let atoms flag ~docv ~doc =
    let spec =
      Arg.conv
        ( (fun s ->
            Result.map_error (fun m -> `Msg m) (Scenario.parse_atom flag s)),
          fun ppf a -> Format.pp_print_string ppf (snd (Scenario.atom_arg a)) )
    in
    let name = String.sub flag 2 (String.length flag - 2) in
    Arg.(value & opt_all spec [] & info [ name ] ~docv ~doc)
  in
  let make engine workload nodes replicas shards rate duration seed period
      nc_ratio read_ratio drop_prob dup_prob partitions crashes coord_crashes
      data_crashes phase_deadline fault_seed hb_period hb_timeout hb_losses =
    let prob atom p = if p > 0. then [ atom p ] else [] in
    {
      Scenario.engine;
      workload;
      nodes;
      replicas;
      shards;
      rate;
      duration;
      seed;
      period;
      nc_ratio;
      read_ratio;
      phase_deadline;
      hb_period;
      hb_timeout;
      fault_seed;
      faults =
        prob (fun p -> Scenario.Loss p) drop_prob
        @ prob (fun p -> Scenario.Dup p) dup_prob
        @ partitions @ crashes @ coord_crashes @ data_crashes @ hb_losses;
    }
  in
  Term.(
    const make $ engine $ workload
    $ int_opt "nodes" d.nodes "Number of database nodes."
    $ int_opt "replicas" d.replicas
        "Replication factor k: nodes are partitioned into groups of k \
         consecutive replicas; commuting updates mirror to every group \
         member, reads fail over inside the group, and advancement tolerates \
         k-1 crashed replicas per group. 3v engine only; requires --nc-ratio \
         0."
    $ int_opt "shards" d.shards
        "Shard count S: nodes are partitioned into S contiguous blocks, each \
         with its own advancement coordinator, write-ahead log and version \
         frontier; update transactions stay within one shard, cross-shard \
         reads get a consistent per-shard read vector. S must divide --nodes \
         evenly and each block must be a multiple of --replicas. 3v engine \
         only; > 1 requires --workload synthetic (the shard-aware generator) \
         and --nc-ratio 0."
    $ float_opt "rate" d.rate "Transaction arrival rate per virtual second."
    $ float_opt "duration" d.duration "Submission window in virtual seconds."
    $ int_opt "seed" d.seed "RNG seed."
    $ float_opt "advancement-period" d.period
        "3V advancement / manual versioning period (virtual seconds)."
    $ float_opt "nc-ratio" d.nc_ratio
        "Fraction of non-commuting updates (pos/synthetic workloads)."
    $ float_opt "read-ratio" d.read_ratio "Read-only fraction."
    $ float_opt "drop-prob" 0. "Drop each remote message with this probability."
    $ float_opt "dup-prob" 0.
        "Duplicate each remote message with this probability."
    $ atoms "--partition" ~docv:"SPEC"
        ~doc:
          "Either SRC:DST:FROM:UNTIL — drop every message on one directed \
           link during [FROM, UNTIL) virtual seconds — or \
           SET@FROM:UNTIL[:oneway] — cut the comma-separated node set SET \
           off from the rest of the cluster for the window, both directions \
           by default, only the set's outbound links with :oneway (an \
           asymmetric partition: the set still hears the cluster but is never \
           heard). Repeatable."
    $ atoms "--crash" ~docv:"NODE@TIME:RESTART"
        ~doc:
          "Fail-stop NODE at TIME and restart it at RESTART: volatile state \
           is lost, the durable store and counters survive. Repeatable; 3v \
           engine only."
    $ atoms "--coord-crash" ~docv:"TIME:RESTART"
        ~doc:
          "Fail-stop the advancement coordinator at TIME and restart it at \
           RESTART: volatile phase progress is lost, the write-ahead log \
           survives and the in-flight advancement is re-driven from its last \
           logged phase. Repeatable; 3v engine only."
    $ atoms "--data-crash" ~docv:"GROUP@TIME:RESTART"
        ~doc:
          "Fail-stop all but one replica of replica group GROUP at TIME and \
           restart them at RESTART — the E14 fault shape: quorum advancement \
           and read failover carry the group on its last live replica. \
           Repeatable; requires --replicas > 1."
    $ float_opt "phase-deadline" d.phase_deadline
        "Stall watchdog deadline (virtual seconds) per advancement phase: \
         past it the coordinator records a stall and re-sends the phase \
         message with bounded backoff. Default infinity (watchdog off). 3v \
         engine only."
    $ int_opt "fault-seed" d.fault_seed
        "Seed of the dedicated fault RNG — fault decisions never perturb the \
         workload or latency RNG streams."
    $ float_opt "hb-period" d.hb_period
        "Heartbeat period in virtual seconds: every node beats to the \
         coordinator's failure detector and all liveness decisions (read \
         failover, quorum participation, watchdog excusal) come from \
         heartbeat suspicion instead of ground truth. 0 (default) disables \
         the detector. 3v engine only."
    $ float_opt "hb-timeout" d.hb_timeout
        "Base suspicion horizon (virtual seconds): a node whose heartbeat is \
         this overdue — adaptively stretched by observed inter-arrival times \
         — becomes suspected. Must exceed --hb-period; used only when \
         --hb-period > 0."
    $ atoms "--hb-loss" ~docv:"NODE@FROM:UNTIL[:PROB]"
        ~doc:
          "Drop NODE's outgoing heartbeats during [FROM, UNTIL) with \
           probability PROB (default 1) — provokes false suspicion of a live \
           node without touching protocol traffic. Repeatable; requires \
           --hb-period > 0.")
