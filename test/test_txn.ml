(* Tests for the transaction model: values, operations, specs, and the
   commute-aware lock manager. *)

module Sim = Simul.Sim
module Value = Txn.Value
module Op = Txn.Op
module Key = Store.Key
module Spec = Txn.Spec
module Result = Txn.Result
module Lockmgr = Txn.Lockmgr

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------ value *)

let value_incr_append () =
  let v =
    Value.empty
    |> Value.incr ~txn:1 ~delta:5.
    |> Value.append ~txn:2 ~entry:"rec"
    |> Value.incr ~txn:1 ~delta:(-2.)
  in
  Alcotest.(check (float 1e-9)) "amount" 3. v.Value.amount;
  checki "entries" 1 (List.length v.Value.entries);
  checkb "writers" true
    (Value.Writers.elements v.Value.writers = [ 1; 2 ])

let value_overwrite () =
  let v = Value.empty |> Value.incr ~txn:1 ~delta:5. in
  let v = Value.overwrite ~txn:3 ~amount:99. v in
  Alcotest.(check (float 1e-9)) "amount replaced" 99. v.Value.amount;
  checkb "writer recorded" true (Value.Writers.mem 3 v.Value.writers)

(* The heart of the paper's assumption: commuting subtransaction bodies
   reach the same state in either order. *)
let value_commutation =
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun t d -> `Incr (t, d)) (int_range 1 5)
            (float_range (-10.) 10.);
          map2 (fun t e -> `Append (t, "e" ^ string_of_int e)) (int_range 1 5)
            (int_range 0 9);
        ])
  in
  let apply v = function
    | `Incr (txn, delta) -> Value.incr ~txn ~delta v
    | `Append (txn, entry) -> Value.append ~txn ~entry v
  in
  QCheck.Test.make ~name:"commuting ops commute (multiset equality)" ~count:300
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 0 10) op_gen)
                     (list_size (int_range 0 10) op_gen)))
    (fun (a, b) ->
      let run ops = List.fold_left apply Value.empty ops in
      Value.equal (run (a @ b)) (run (b @ a)))

(* Writer tags against a [Set.Make (Int)] model, the representation they
   replaced. Ids mostly arrive in order; a straggler lands 1-50 below the
   newest id, and a repeat re-adds an id already present. *)
module Int_set = Set.Make (Int)
module Writers = Value.Writers

type tag_move = Fresh of int | Straggler of int | Repeat of int
type tag_step = Add of bool * tag_move | Union | Probe of int

let writers_match_set_model =
  let move =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun k -> Fresh k) (int_range 1 3));
          (2, map (fun d -> Straggler d) (int_range 1 50));
          (2, map (fun i -> Repeat i) nat);
        ])
  in
  let step =
    QCheck.Gen.(
      frequency
        [
          (8, map2 (fun left m -> Add (left, m)) bool move);
          (1, return Union);
          (1, map (fun d -> Probe d) (int_range 0 60));
        ])
  in
  let print = function
    | Add (left, m) ->
        Printf.sprintf "Add(%s,%s)"
          (if left then "a" else "b")
          (match m with
          | Fresh k -> Printf.sprintf "Fresh %d" k
          | Straggler d -> Printf.sprintf "Straggler %d" d
          | Repeat i -> Printf.sprintf "Repeat %d" i)
    | Union -> "Union"
    | Probe d -> Printf.sprintf "Probe %d" d
  in
  QCheck.Test.make ~name:"writer tags == Set.Make (Int) model" ~count:1000
    (QCheck.make
       ~print:QCheck.Print.(list print)
       QCheck.Gen.(list_size (int_range 0 120) step))
    (fun steps ->
      let next = ref 60 in
      let a = ref Writers.empty and b = ref Writers.empty in
      let sa = ref Int_set.empty and sb = ref Int_set.empty in
      let visit iter w =
        let seen = ref [] in
        iter (fun x -> seen := x :: !seen) w;
        List.rev !seen
      in
      let agree w s =
        Writers.elements w = Int_set.elements s
        && Writers.is_empty w = Int_set.is_empty s
        && visit Writers.iter w = visit Int_set.iter s
        && Writers.fold List.cons w [] = Int_set.fold List.cons s []
        && Writers.descending w = List.rev (Int_set.elements s)
      in
      let probe x = Writers.mem x !a = Int_set.mem x !sa && Writers.mem x !b = Int_set.mem x !sb in
      List.for_all
        (fun st ->
          (match st with
          | Add (left, m) ->
              let w, s = if left then (a, sa) else (b, sb) in
              let id =
                match m with
                | Fresh k ->
                    next := !next + k;
                    !next
                | Straggler d -> !next - d
                | Repeat i -> (
                    match Int_set.elements !s with
                    | [] -> !next
                    | ids -> List.nth ids (i mod List.length ids))
              in
              let before = !w in
              w := Writers.add id before;
              if Int_set.mem id !s && not (!w == before) then
                QCheck.Test.fail_reportf "re-adding %d copied the tags" id;
              s := Int_set.add id !s
          | Union ->
              a := Writers.union !a !b;
              sa := Int_set.union !sa !sb
          | Probe _ -> ());
          let probes = match st with Probe d -> [ !next - d ] | _ -> [] in
          agree !a !sa && agree !b !sb
          && Writers.equal !a !b = Int_set.equal !sa !sb
          && List.for_all probe (probes @ Int_set.elements !sa @ Int_set.elements !sb)
          && List.for_all probe [ !next + 1; 0 ])
        steps)

(* The in-order add is one cons cell; a 1k-element [Set.add] path copy
   measured 65 minor words. Re-adding a present id copies nothing. *)
let writers_add_cost () =
  let base = List.fold_left (fun w x -> Writers.add x w) Writers.empty (List.init 1000 Fun.id) in
  let n = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    ignore (Sys.opaque_identity (Writers.add (999 + i) base))
  done;
  let per_add = (Gc.minor_words () -. before) /. float_of_int n in
  if per_add > 3. then Alcotest.failf "an in-order add allocates %.2f minor words" per_add;
  List.iter
    (fun x ->
      checkb
        (Printf.sprintf "re-adding %d returns its argument" x)
        true (Writers.add x base == base))
    [ 999; 500; 0 ];
  let before = Gc.minor_words () in
  for i = 1 to n do
    ignore (Sys.opaque_identity (Writers.add (i mod 1000) base))
  done;
  let words = Gc.minor_words () -. before in
  if words > 8. then Alcotest.failf "%d re-adds allocated %.0f minor words" n words

(* --------------------------------------------------------------- op *)

let op_classification () =
  checkb "read not write" false (Op.is_write (Op.Read (Key.intern "k")));
  checkb "incr write" true (Op.is_write (Op.Incr (Key.intern "k", 1.)));
  checkb "incr commutes" true (Op.commuting_write (Op.Incr (Key.intern "k", 1.)));
  checkb "append commutes" true (Op.commuting_write (Op.Append (Key.intern "k", "e")));
  checkb "overwrite does not" false (Op.commuting_write (Op.Overwrite (Key.intern "k", 1.)));
  Alcotest.(check string) "key" "k" (Key.name (Op.key (Op.Overwrite (Key.intern "k", 1.))))

(* ------------------------------------------------------------- spec *)

let spec_classify () =
  let read = Spec.make ~id:1 (Spec.subtxn 0 [ Op.Read (Key.intern "a") ]) in
  checkb "read-only" true (read.Spec.kind = Spec.Read_only);
  let upd =
    Spec.make ~id:2
      (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Append (Key.intern "b", "x") ] ] 0
         [ Op.Incr (Key.intern "a", 1.); Op.Read (Key.intern "c") ])
  in
  checkb "commuting" true (upd.Spec.kind = Spec.Commuting);
  let nc =
    Spec.make ~id:3
      (Spec.subtxn ~children:[ Spec.subtxn 1 [ Op.Overwrite (Key.intern "b", 2.) ] ] 0
         [ Op.Incr (Key.intern "a", 1.) ])
  in
  checkb "one overwrite anywhere makes it non-commuting" true
    (nc.Spec.kind = Spec.Non_commuting)

let spec_accessors () =
  let tree =
    Spec.subtxn
      ~children:
        [
          Spec.subtxn 2 [ Op.Read (Key.intern "x") ];
          Spec.subtxn ~children:[ Spec.subtxn 0 [ Op.Incr (Key.intern "z", 1.) ] ] 1
            [ Op.Incr (Key.intern "y", 1.) ];
        ]
      0
      [ Op.Read (Key.intern "w"); Op.Incr (Key.intern "x", 1.) ]
  in
  let spec = Spec.make ~id:7 ~label:"t" tree in
  Alcotest.(check (list int)) "nodes" [ 0; 1; 2 ] (Spec.nodes spec);
  Alcotest.(check (list string)) "written keys" [ "x"; "y"; "z" ]
    (Spec.keys_written spec);
  checki "size" 4 (Spec.size spec)

let result_latencies () =
  let r =
    {
      Result.txn_id = 1;
      served_by = 0;
      outcome = Result.Committed;
      version = 1;
      reads = [];
      submit_time = 1.0;
      root_commit_time = 1.25;
      complete_time = 2.0;
    }
  in
  Alcotest.(check (float 1e-9)) "settle" 1.0 (Result.latency r);
  Alcotest.(check (float 1e-9)) "blocking" 0.25 (Result.blocking_latency r);
  checkb "committed" true (Result.committed r);
  checkb "aborted" false (Result.committed { r with outcome = Result.Aborted "x" })

(* ---------------------------------------------------------- lockmgr *)

let compat () =
  checkb "S/S" true (Lockmgr.compatible Lockmgr.Shared Lockmgr.Shared);
  checkb "S/X" false (Lockmgr.compatible Lockmgr.Shared Lockmgr.Exclusive);
  checkb "X/X" false (Lockmgr.compatible Lockmgr.Exclusive Lockmgr.Exclusive);
  checkb "CR/CU" true (Lockmgr.compatible Lockmgr.Commute_read Lockmgr.Commute_update);
  checkb "CU/CU" true (Lockmgr.compatible Lockmgr.Commute_update Lockmgr.Commute_update);
  checkb "NC/CU" false (Lockmgr.compatible Lockmgr.Non_commute Lockmgr.Commute_update);
  checkb "NC/NC" false (Lockmgr.compatible Lockmgr.Non_commute Lockmgr.Non_commute)

let key = Key.intern

(* [acquire lm ~owner name mode] requests [name]'s lock and returns the
   cell its verdict lands in: at once for an immediate verdict, on an
   event of its own for a queued one. *)
let acquire lm ?timeout ~owner name mode =
  let got = ref None in
  Lockmgr.acquire_then lm ?timeout ~owner ~key:(key name) ~mode (fun v -> got := Some v);
  got

(* Runs the script [body sim] returns to the end of the simulation, then
   reads its result. *)
let in_sim body =
  let sim = Sim.create () in
  let steps, result = body sim in
  Script.run sim steps;
  ignore (Sim.run sim ());
  result ()

let shared_locks_coexist () =
  let granted =
    in_sim (fun sim ->
        let lm = Lockmgr.create sim () in
        let a = acquire lm ~owner:1 "k" Lockmgr.Shared in
        let b = acquire lm ~owner:2 "k" Lockmgr.Shared in
        ([], fun () -> (!a, !b)))
  in
  checkb "both granted" true (granted = (Some Lockmgr.Granted, Some Lockmgr.Granted))

let exclusive_blocks_until_release () =
  let order =
    in_sim (fun sim ->
        let lm = Lockmgr.create sim ~deadlock_timeout:infinity () in
        let log = ref [] in
        ignore (acquire lm ~owner:1 "k" Lockmgr.Exclusive);
        Lockmgr.acquire_then lm ~owner:2 ~key:(key "k") ~mode:Lockmgr.Exclusive (function
          | Lockmgr.Granted -> log := "granted" :: !log
          | _ -> log := "refused" :: !log);
        ( Script.
            [
              Wait 1.0;
              Do
                (fun () ->
                  log := "releasing" :: !log;
                  Lockmgr.release_all lm ~owner:1);
            ],
          fun () -> List.rev !log ))
  in
  checkb "waiter granted only after release" true (order = [ "releasing"; "granted" ])

let commute_locks_never_wait () =
  let all_granted =
    in_sim (fun sim ->
        let lm = Lockmgr.create sim () in
        let got =
          List.map (fun owner -> acquire lm ~owner "hot" Lockmgr.Commute_update) [ 1; 2; 3; 4; 5 ]
        in
        ([], fun () -> List.for_all (fun g -> !g = Some Lockmgr.Granted) got))
  in
  checkb "five concurrent commute-update locks" true all_granted

let nc_blocks_commute () =
  let result =
    in_sim (fun sim ->
        let lm = Lockmgr.create sim ~deadlock_timeout:infinity () in
        ignore (acquire lm ~owner:1 "k" Lockmgr.Non_commute);
        let got = acquire lm ~owner:2 "k" Lockmgr.Commute_update in
        let blocked = ref false in
        ( Script.
            [
              Wait 0.5;
              Do
                (fun () ->
                  blocked := !got = None;
                  Lockmgr.release_all lm ~owner:1);
            ],
          fun () -> (!blocked, !got) ))
  in
  checkb "blocked then granted" true (result = (true, Some Lockmgr.Granted))

let deadlock_detected () =
  let outcome =
    in_sim (fun sim ->
        let lm = Lockmgr.create sim ~deadlock_timeout:infinity () in
        ignore (acquire lm ~owner:1 "a" Lockmgr.Exclusive);
        ignore (acquire lm ~owner:2 "b" Lockmgr.Exclusive);
        let r1 = acquire lm ~owner:1 "b" Lockmgr.Exclusive and r2 = ref None in
        ( Script.
            [
              Wait 0.1;
              Do
                (fun () ->
                  (* Owner 2 now closes the cycle: must be refused immediately. *)
                  r2 := !(acquire lm ~owner:2 "a" Lockmgr.Exclusive);
                  (* Let owner 2 abort, releasing b, which unblocks owner 1. *)
                  Lockmgr.release_all lm ~owner:2);
            ],
          fun () -> (!r2, !r1) ))
  in
  checkb "cycle refused and victim's release unblocks waiter" true
    (outcome = (Some Lockmgr.Deadlock, Some Lockmgr.Granted))

let timeout_fires () =
  let result =
    in_sim (fun sim ->
        let lm = Lockmgr.create sim ~deadlock_timeout:0.2 () in
        ignore (acquire lm ~owner:1 "k" Lockmgr.Exclusive);
        let got = ref None in
        Lockmgr.acquire_then lm ~owner:2 ~key:(key "k") ~mode:Lockmgr.Exclusive (fun v ->
            got := Some (v, Sim.now sim));
        ([], fun () -> !got))
  in
  checkb "timed out at the deadline" true
    (match result with
    | Some (Lockmgr.Timeout, at) -> abs_float (at -. 0.2) < 1e-9
    | _ -> false)

let per_call_timeout_overrides () =
  let result =
    in_sim (fun sim ->
        let lm = Lockmgr.create sim ~deadlock_timeout:10.0 () in
        ignore (acquire lm ~owner:1 "k" Lockmgr.Exclusive);
        let got = acquire lm ~timeout:0.05 ~owner:2 "k" Lockmgr.Exclusive in
        ([], fun () -> !got))
  in
  checkb "per-call timeout" true (result = Some Lockmgr.Timeout)

let reentrant_acquire () =
  let result =
    in_sim (fun sim ->
        let lm = Lockmgr.create sim () in
        let a = acquire lm ~owner:1 "k" Lockmgr.Shared in
        (* Even with an incompatible waiter queued, the holder's own new
           request must not deadlock behind it. *)
        ignore (acquire lm ~owner:2 "k" Lockmgr.Exclusive);
        let b = ref None in
        ( Script.
            [
              Wait 0.01;
              Do
                (fun () ->
                  b := !(acquire lm ~owner:1 "k" Lockmgr.Shared);
                  Lockmgr.release_all lm ~owner:1);
              Wait 0.01;
              Do (fun () -> Lockmgr.release_all lm ~owner:2);
            ],
          fun () -> (!a, !b) ))
  in
  checkb "re-entrant" true (result = (Some Lockmgr.Granted, Some Lockmgr.Granted))

let fifo_no_overtaking () =
  let order =
    in_sim (fun sim ->
        let lm = Lockmgr.create sim ~deadlock_timeout:infinity () in
        ignore (acquire lm ~owner:1 "k" Lockmgr.Exclusive);
        let log = ref [] in
        (* Owner 2 queues for X; owner 3's S request arrives later and must
           not overtake it. *)
        Lockmgr.acquire_then lm ~owner:2 ~key:(key "k") ~mode:Lockmgr.Exclusive (fun _ ->
            log := 2 :: !log;
            Sim.after sim 0.1 (fun () -> Lockmgr.release_all lm ~owner:2));
        ( Script.
            [
              Wait 0.01;
              Do
                (fun () ->
                  Lockmgr.acquire_then lm ~owner:3 ~key:(key "k") ~mode:Lockmgr.Shared (fun _ ->
                      log := 3 :: !log;
                      Lockmgr.release_all lm ~owner:3));
              Wait 0.05;
              Do (fun () -> Lockmgr.release_all lm ~owner:1);
            ],
          fun () -> List.rev !log ))
  in
  checkb "fifo order" true (order = [ 2; 3 ])

let held_and_counts () =
  let sim = Sim.create () in
  let lm = Lockmgr.create sim () in
  ignore (acquire lm ~owner:1 "a" Lockmgr.Shared);
  ignore (acquire lm ~owner:1 "b" Lockmgr.Exclusive);
  checkb "held" true
    (Lockmgr.held lm ~owner:1 = [ (key "a", Lockmgr.Shared); (key "b", Lockmgr.Exclusive) ]);
  checki "no waiters" 0 (Lockmgr.waiting lm);
  Lockmgr.release_all lm ~owner:1;
  checkb "released" true (Lockmgr.held lm ~owner:1 = [])

let release_wakes_multiple_shared () =
  let count =
    in_sim (fun sim ->
        let lm = Lockmgr.create sim ~deadlock_timeout:infinity () in
        ignore (acquire lm ~owner:1 "k" Lockmgr.Exclusive);
        let got = List.map (fun owner -> acquire lm ~owner "k" Lockmgr.Shared) [ 2; 3; 4 ] in
        ( Script.[ Wait 0.1; Do (fun () -> Lockmgr.release_all lm ~owner:1) ],
          fun () -> List.length (List.filter (fun g -> !g = Some Lockmgr.Granted) got) ))
  in
  checki "all shared waiters granted together" 3 count

let reentrant_no_duplicate_holders () =
  let sim = Sim.create () in
  let lm = Lockmgr.create sim () in
  ignore (acquire lm ~owner:1 "k" Lockmgr.Shared);
  ignore (acquire lm ~owner:1 "k" Lockmgr.Shared);
  ignore (acquire lm ~owner:1 "k" Lockmgr.Shared);
  checkb "re-granting an already-held mode adds no duplicate entry" true
    (Lockmgr.held lm ~owner:1 = [ (key "k", Lockmgr.Shared) ]);
  (* A genuine upgrade still records the new mode alongside the old. *)
  ignore (acquire lm ~owner:1 "k" Lockmgr.Exclusive);
  checkb "distinct modes are both recorded" true
    (Lockmgr.held lm ~owner:1 = [ (key "k", Lockmgr.Shared); (key "k", Lockmgr.Exclusive) ]);
  Lockmgr.release_all lm ~owner:1

let release_all_cancels_own_waiters () =
  let result =
    in_sim (fun sim ->
        let lm = Lockmgr.create sim ~deadlock_timeout:infinity () in
        ignore (acquire lm ~owner:1 "k" Lockmgr.Exclusive);
        (* Owner 2 holds one lock and queues on another — the shape of a
           partially-locked transaction being torn down mid-acquire. *)
        ignore (acquire lm ~owner:2 "other" Lockmgr.Exclusive);
        let got = acquire lm ~owner:2 "k" Lockmgr.Exclusive in
        let aborted = ref 0 in
        ( Script.
            [
              Wait 0.1;
              Do
                (fun () ->
                  (* Owner 2 aborts while still queued: its wait must end
                     in [Cancelled], not [Timeout], and must not count as
                     a conflict. *)
                  let before = Lockmgr.conflicts_aborted lm in
                  Lockmgr.release_all lm ~owner:2;
                  Sim.after sim 0.1 (fun () -> aborted := Lockmgr.conflicts_aborted lm - before));
            ],
          fun () -> (!got, !aborted) ))
  in
  checkb "cancelled wake reason" true (fst result = Some Lockmgr.Cancelled);
  checki "cancellation is not a conflict abort" 0 (snd result)

(* An owner that holds no lock still has its waits ended by its release,
   and once the holder releases too no lock record is left. *)
let release_all_cancels_lockless_owner () =
  let result =
    in_sim (fun sim ->
        let lm = Lockmgr.create sim ~deadlock_timeout:infinity () in
        ignore (acquire lm ~owner:1 "k" Lockmgr.Exclusive);
        let got = acquire lm ~owner:2 "k" Lockmgr.Exclusive in
        let verdict = ref None in
        ( Script.
            [
              Wait 0.1;
              Do (fun () -> Lockmgr.release_all lm ~owner:2);
              Wait 0.1;
              Do
                (fun () ->
                  verdict := !got;
                  Lockmgr.release_all lm ~owner:1);
            ],
          fun () -> (!verdict, Lockmgr.waiting lm, Lockmgr.locked_keys lm) ))
  in
  checkb "cancelled, nothing waiting, no lock record" true
    (result = (Some Lockmgr.Cancelled, 0, 0))

(* Property: under random acquire/release schedules, the lock table never
   holds two incompatible owners on a key, and everything drains (granted
   or refused — no one left waiting forever once all owners release). *)
let lockmgr_random_schedules =
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map3
            (fun owner key mode -> `Acquire (owner, key, mode))
            (int_range 1 5) (int_range 0 2)
            (oneofl
               [ Lockmgr.Shared; Lockmgr.Exclusive; Lockmgr.Commute_read;
                 Lockmgr.Commute_update; Lockmgr.Non_commute ]);
          map (fun owner -> `Release owner) (int_range 1 5);
        ])
  in
  QCheck.Test.make ~name:"lockmgr: compatibility invariant + drain" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 30) op_gen))
    (fun ops ->
      let sim = Sim.create () in
      let lm = Lockmgr.create sim ~deadlock_timeout:0.5 () in
      let violation = ref false in
      (* Track current holders per key from grant results to check the
         compatibility matrix externally. *)
      let grants : (int * Key.t * Lockmgr.mode) list ref = ref [] in
      let note_grant owner key mode =
        List.iter
          (fun (o, k, m) ->
            if k = key && o <> owner && not (Lockmgr.compatible mode m) then
              violation := true)
          !grants;
        grants := (owner, key, mode) :: !grants
      in
      let drop_owner owner =
        grants := List.filter (fun (o, _, _) -> o <> owner) !grants
      in
      List.iteri
        (fun i op ->
          match op with
          | `Acquire (owner, key, mode) ->
              Script.(
                run sim
                  [
                    Do
                      (fun () ->
                        let key = Key.intern (string_of_int key) in
                        Lockmgr.acquire_then lm ~owner ~key ~mode (function
                          | Lockmgr.Granted -> note_grant owner key mode
                          | Lockmgr.Deadlock | Lockmgr.Timeout | Lockmgr.Cancelled -> ()));
                  ])
          | `Release owner ->
              Script.(
                run sim
                  [
                    Wait (0.01 *. float_of_int i);
                    Do
                      (fun () ->
                        drop_owner owner;
                        Lockmgr.release_all lm ~owner);
                  ]))
        ops;
      (* Run; then release every owner so all waiters resolve. *)
      ignore (Sim.run sim ~until:10.0 ());
      for owner = 1 to 5 do
        drop_owner owner;
        Lockmgr.release_all lm ~owner
      done;
      ignore (Sim.run sim ~until:20.0 ());
      (not !violation) && Lockmgr.waiting lm = 0)

(* One owner's release wakes the waiters of its keys in the order it
   locked them: here x, y, z, which a hash table of the names iterates as
   z, y, x. *)
let release_wakes_in_acquisition_order () =
  let order =
    in_sim (fun sim ->
        let lm = Lockmgr.create sim ~deadlock_timeout:infinity () in
        let log = ref [] in
        List.iteri
          (fun i name ->
            ignore (acquire lm ~owner:1 name Lockmgr.Exclusive);
            Lockmgr.acquire_then lm ~owner:(i + 2) ~key:(key name) ~mode:Lockmgr.Exclusive
              (fun _ -> log := (i + 2) :: !log))
          [ "x"; "y"; "z" ];
        ( Script.[ Wait 0.1; Do (fun () -> Lockmgr.release_all lm ~owner:1) ],
          fun () -> List.rev !log ))
  in
  Alcotest.(check (list int)) "waiters of x, y, z resume in that order" [ 2; 3; 4 ] order

(* The library's manager against the reference manager it replaced
   ([Lockmgr_oracle], keyed by name): random acquire, release and timeout
   sequences must give every request the same verdict at the same
   instant. Op [i] runs at time [i]; a finite timeout ends half a second
   past an op; a request is made from an event of its own, as a spawned
   requester's was, or, on the library's side only, inline in the op's
   event. The two managers wake one release's
   waiters in different orders, which a per-request comparison ignores.
   A release is skipped while its owner waits and holds nothing: the
   reference manager returns early for an owner with no lock and leaves
   its waits queued, where the library cancels them. After the ops, owners
   release in turn until nothing is held or waiting, and then the library
   keeps no lock record. *)
type lock_op =
  | Lock of int * int * Lockmgr.mode * float option * bool
      (** owner, key, mode, timeout, requested from an event of its own *)
  | Unlock of int

type lock_api = {
  acquire :
    owner:int -> key:int -> mode:Lockmgr.mode -> timeout:float option -> deferred:bool ->
    (Lockmgr.grant -> unit) -> unit;
  release : int -> unit;
  aborted : unit -> int;
  idle : unit -> bool;  (** nothing held, waiting or kept *)
}

let run_lock_ops make ops =
  let sim = Sim.create () in
  let api = make sim in
  let ops = Array.of_list ops in
  let verdicts = Array.make (Array.length ops) None in
  let held = Array.make 5 [] and waits = ref [] in
  let release owner =
    if held.(owner) <> [] || not (List.exists (fun (_, o, _) -> o = owner) !waits) then begin
      held.(owner) <- [];
      api.release owner
    end
  in
  Array.iteri
    (fun i op ->
      Sim.schedule sim ~delay:(float_of_int i) (fun () ->
          match op with
          | Unlock owner -> release owner
          | Lock (owner, key, mode, timeout, deferred) ->
              waits := (i, owner, key) :: !waits;
              api.acquire ~owner ~key ~mode ~timeout ~deferred (fun g ->
                  verdicts.(i) <- Some (g, Sim.now sim);
                  waits := List.filter (fun (j, _, _) -> j <> i) !waits;
                  if g = Lockmgr.Granted then held.(owner) <- key :: held.(owner))))
    ops;
  let rec release_in_turn step =
    if step < 400 && (!waits <> [] || Array.exists (fun h -> h <> []) held || step < 4) then begin
      release ((step mod 4) + 1);
      Sim.schedule sim ~delay:1. (fun () -> release_in_turn (step + 1))
    end
  in
  Sim.schedule sim ~delay:(float_of_int (Array.length ops)) (fun () -> release_in_turn 0);
  ignore (Sim.run sim ());
  (verdicts, api.aborted (), api.idle ())

let library_locks sim =
  let lm = Lockmgr.create sim ~deadlock_timeout:2.5 () in
  {
    acquire =
      (fun ~owner ~key ~mode ~timeout ~deferred k ->
        let key = Key.intern (string_of_int key) in
        let request () = Lockmgr.acquire_then lm ?timeout ~owner ~key ~mode k in
        if deferred then Sim.schedule sim ~delay:0. request else request ());
    release = (fun owner -> Lockmgr.release_all lm ~owner);
    aborted = (fun () -> Lockmgr.conflicts_aborted lm);
    idle = (fun () -> Lockmgr.waiting lm = 0 && Lockmgr.locked_keys lm = 0);
  }

let oracle_locks sim =
  let lm = Lockmgr_oracle.create sim ~deadlock_timeout:2.5 () in
  {
    acquire =
      (fun ~owner ~key ~mode ~timeout ~deferred:_ k ->
        let key = string_of_int key in
        Sim.schedule sim ~delay:0. (fun () ->
            Lockmgr_oracle.acquire lm ?timeout ~owner ~key ~mode k));
    release = (fun owner -> Lockmgr_oracle.release_all lm ~owner);
    aborted = (fun () -> Lockmgr_oracle.conflicts_aborted lm);
    idle = (fun () -> Lockmgr_oracle.waiting lm = 0);
  }

let lockmgr_matches_oracle =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          ( 4,
            map
              (fun (owner, key, mode, timeout, deferred) ->
                Lock (owner, key, mode, timeout, deferred))
              (tup5 (int_range 1 4) (int_range 0 2)
                 (oneofl
                    [ Lockmgr.Shared; Lockmgr.Exclusive; Lockmgr.Commute_read;
                      Lockmgr.Commute_update; Lockmgr.Non_commute ])
                 (oneofl [ None; Some infinity; Some 0.5; Some 1.5 ])
                 bool) );
          (1, map (fun owner -> Unlock owner) (int_range 1 4));
        ])
  in
  let mode_name = function
    | Lockmgr.Shared -> "S"
    | Lockmgr.Exclusive -> "X"
    | Lockmgr.Commute_read -> "CR"
    | Lockmgr.Commute_update -> "CU"
    | Lockmgr.Non_commute -> "NC"
  in
  let print_op = function
    | Unlock o -> Printf.sprintf "release %d" o
    | Lock (o, k, m, timeout, deferred) ->
        Printf.sprintf "%d locks %d %s%s%s" o k (mode_name m)
          (match timeout with None -> "" | Some d -> Printf.sprintf " for %g" d)
          (if deferred then "" else " (inline)")
  in
  QCheck.Test.make ~name:"lockmgr: verdicts match the reference manager" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 40) op_gen))
    (fun ops ->
      let verdicts, aborted, idle = run_lock_ops library_locks ops in
      let verdicts', aborted', idle' = run_lock_ops oracle_locks ops in
      List.for_all2
        (fun op v -> match op with Lock _ -> v <> None | Unlock _ -> true)
        ops (Array.to_list verdicts)
      && verdicts = verdicts' && aborted = aborted' && idle && idle')

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      value_commutation; writers_match_set_model; lockmgr_random_schedules;
      lockmgr_matches_oracle;
    ]

let () =
  Alcotest.run "txn"
    [
      ( "value",
        [
          Alcotest.test_case "incr/append" `Quick value_incr_append;
          Alcotest.test_case "overwrite" `Quick value_overwrite;
          Alcotest.test_case "writer tag add cost" `Quick writers_add_cost;
        ]
        @ qsuite );
      ("op", [ Alcotest.test_case "classification" `Quick op_classification ]);
      ( "spec",
        [
          Alcotest.test_case "classify" `Quick spec_classify;
          Alcotest.test_case "accessors" `Quick spec_accessors;
          Alcotest.test_case "result latencies" `Quick result_latencies;
        ] );
      ( "lockmgr",
        [
          Alcotest.test_case "compatibility matrix" `Quick compat;
          Alcotest.test_case "shared coexist" `Quick shared_locks_coexist;
          Alcotest.test_case "exclusive blocks" `Quick
            exclusive_blocks_until_release;
          Alcotest.test_case "commute locks never wait" `Quick
            commute_locks_never_wait;
          Alcotest.test_case "nc blocks commute" `Quick nc_blocks_commute;
          Alcotest.test_case "deadlock detected" `Quick deadlock_detected;
          Alcotest.test_case "release wakes in acquisition order" `Quick
            release_wakes_in_acquisition_order;
          Alcotest.test_case "release cancels a lockless owner" `Quick
            release_all_cancels_lockless_owner;
          Alcotest.test_case "timeout fires" `Quick timeout_fires;
          Alcotest.test_case "per-call timeout" `Quick per_call_timeout_overrides;
          Alcotest.test_case "re-entrant" `Quick reentrant_acquire;
          Alcotest.test_case "re-entrant no duplicate holders" `Quick
            reentrant_no_duplicate_holders;
          Alcotest.test_case "release_all cancels own waiters" `Quick
            release_all_cancels_own_waiters;
          Alcotest.test_case "fifo no overtaking" `Quick fifo_no_overtaking;
          Alcotest.test_case "held and counts" `Quick held_and_counts;
          Alcotest.test_case "release wakes shared group" `Quick
            release_wakes_multiple_shared;
        ] );
    ]
