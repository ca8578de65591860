module Spec = Txn.Spec
module Op = Txn.Op

type params = {
  departments : int;
  patients : int;
  visit_fanout : int;
  read_ratio : float;
  arrival_rate : float;
  zipf_s : float;
  front_end : bool;
  charge : float;
  post_delay : float;
}

let default ~nodes =
  {
    departments = nodes;
    patients = 100;
    visit_fanout = 2;
    read_ratio = 0.25;
    arrival_rate = 200.;
    zipf_s = 0.8;
    front_end = false;
    charge = 10.;
    post_delay = 0.;
  }

let balance_key ~patient ~department =
  Printf.sprintf "patient%d@dept%d" patient department

let visit p rng ~id ~patient =
  let departments =
    Generator.pick_distinct rng ~n:p.visit_fanout ~among:p.departments
  in
  let posting_think () =
    if p.post_delay > 0. then Random.State.float rng p.post_delay else 0.
  in
  let ops_of dept =
    let key = Store.Key.intern (balance_key ~patient ~department:dept) in
    [ Op.Incr (key, p.charge); Op.Append (key, Printf.sprintf "procedure-by-visit-%d" id) ]
  in
  let tree =
    if p.front_end then begin
      (* Figure 1: an empty root at the front end fans out to departments. *)
      let front = Random.State.int rng p.departments in
      let children =
        List.map
          (fun d -> Spec.subtxn ~think:(posting_think ()) d (ops_of d))
          departments
      in
      Spec.subtxn ~children front []
    end
    else begin
      match departments with
      | [] -> assert false
      | root_dept :: rest ->
          let children =
            List.map
              (fun d -> Spec.subtxn ~think:(posting_think ()) d (ops_of d))
              rest
          in
          Spec.subtxn ~children root_dept (ops_of root_dept)
    end
  in
  Spec.make ~id ~label:(Printf.sprintf "visit%d" id) tree

let inquiry p rng ~id ~patient =
  let all = List.init p.departments (fun d -> d) in
  let ops_of dept = [ Op.Read (Store.Key.intern (balance_key ~patient ~department:dept)) ] in
  let tree =
    if p.front_end then begin
      let front = Random.State.int rng p.departments in
      let children = List.map (fun d -> Spec.subtxn d (ops_of d)) all in
      Spec.subtxn ~children front []
    end
    else Generator.fanout_tree ~ops_of all
  in
  Spec.make ~id ~label:(Printf.sprintf "inquiry%d" id) tree

let generator p =
  if p.departments <= 0 then invalid_arg "Hospital: departments must be > 0";
  if p.visit_fanout <= 0 then invalid_arg "Hospital: visit_fanout must be > 0";
  let popularity = Zipf.create ~n:p.patients ~s:p.zipf_s in
  {
    Generator.gen_name = "hospital";
    arrival_rate = p.arrival_rate;
    make =
      (fun rng ~id ->
        let patient = Zipf.sample popularity rng in
        if Random.State.float rng 1. < p.read_ratio then
          inquiry p rng ~id ~patient
        else visit p rng ~id ~patient);
  }
