type phase = Switch_update | Quiesce_update | Switch_read | Retire_read

let phase_number = function
  | Switch_update -> 1
  | Quiesce_update -> 2
  | Switch_read -> 3
  | Retire_read -> 4

type record =
  | Started of { epoch : int; time : float }
  | Phase of { adv : int; phase : phase; vu_old : int; vr_old : int; time : float }
  | Committed of { adv : int; time : float }

type t = { mutable records : record list (* newest first *) }

let create () = { records = [] }
let append t r = t.records <- r :: t.records
let records t = List.rev t.records

type in_flight = { f_adv : int; f_phase : phase; f_vu_old : int; f_vr_old : int }

type recovery = {
  next_epoch : int;
  completed : int;
  vu : int;
  vr : int;
  in_flight : in_flight option;
}

let recover t ~init_vu ~init_vr =
  (* Fold oldest-first: a [Committed] for advancement [adv] supersedes any
     [Phase] record of the same advancement; the most recent unsuperseded
     [Phase] is the in-flight advancement to resume. *)
  let max_epoch = ref 0 and completed = ref 0 in
  let in_flight = ref None in
  List.iter
    (fun r ->
      match r with
      | Started { epoch; _ } -> if epoch > !max_epoch then max_epoch := epoch
      | Phase { adv; phase; vu_old; vr_old; _ } ->
          in_flight :=
            Some { f_adv = adv; f_phase = phase; f_vu_old = vu_old; f_vr_old = vr_old }
      | Committed { adv; _ } ->
          if adv > !completed then completed := adv;
          (match !in_flight with
          | Some f when f.f_adv = adv -> in_flight := None
          | _ -> ()))
    (records t);
  {
    next_epoch = !max_epoch + 1;
    completed = !completed;
    vu = init_vu + !completed;
    vr = init_vr + !completed;
    in_flight = !in_flight;
  }

let phase_times t =
  List.filter_map
    (function
      | Phase { adv; phase; time; _ } -> Some (adv, phase, time)
      | Started _ | Committed _ -> None)
    (records t)
