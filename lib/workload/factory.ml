module Spec = Txn.Spec
module Op = Txn.Op

type params = {
  lines : int;
  machines_per_line : int;
  read_ratio : float;
  reset_ratio : float;
  arrival_rate : float;
  zipf_s : float;
}

let default ~nodes =
  {
    lines = nodes;
    machines_per_line = 12;
    read_ratio = 0.15;
    reset_ratio = 0.;
    arrival_rate = 600.;
    zipf_s = 0.7;
  }

let machine_key ~line ~machine =
  Store.Key.intern (Printf.sprintf "machine%d@line%d" machine line)

let line_total_key ~line = Store.Key.intern (Printf.sprintf "total@line%d" line)

let observation p rng ~id ~machine =
  let line = Random.State.int rng p.lines in
  let pieces = 1. +. float_of_int (Random.State.int rng 4) in
  let local_ops =
    [
      Op.Append
        (machine_key ~line ~machine, Printf.sprintf "reading-%d" id);
      Op.Incr (machine_key ~line ~machine, pieces);
      Op.Incr (line_total_key ~line, pieces);
    ]
  in
  (* Some observations also feed a neighbouring line's aggregation stage
     (parts flowing between lines), making the transaction multi-node. *)
  let tree =
    if p.lines > 1 && Random.State.int rng 3 = 0 then begin
      let next_line = (line + 1) mod p.lines in
      Spec.subtxn
        ~children:
          [ Spec.subtxn next_line [ Op.Incr (line_total_key ~line:next_line, pieces) ] ]
        line local_ops
    end
    else Spec.subtxn line local_ops
  in
  Spec.make ~id ~label:(Printf.sprintf "obs%d" id) tree

let shift_report p rng ~id ~machine =
  let sample_line = Random.State.int rng p.lines in
  let ops_of line =
    if line = sample_line then
      [ Op.Read (line_total_key ~line); Op.Read (machine_key ~line ~machine) ]
    else [ Op.Read (line_total_key ~line) ]
  in
  Spec.make ~id
    ~label:(Printf.sprintf "report%d" id)
    (Generator.fanout_tree ~ops_of (List.init p.lines Fun.id))

let counter_reset p rng ~id ~machine =
  let line = Random.State.int rng p.lines in
  Spec.make ~id
    ~label:(Printf.sprintf "reset%d" id)
    (Spec.subtxn line [ Op.Overwrite (machine_key ~line ~machine, 0.) ])

let generator p =
  if p.lines <= 0 then invalid_arg "Factory: lines must be > 0";
  let popularity = Zipf.create ~n:p.machines_per_line ~s:p.zipf_s in
  {
    Generator.gen_name = "factory";
    arrival_rate = p.arrival_rate;
    make =
      (fun rng ~id ->
        let machine = Zipf.sample popularity rng in
        if Random.State.float rng 1. < p.read_ratio then
          shift_report p rng ~id ~machine
        else if Random.State.float rng 1. < p.reset_ratio then
          counter_reset p rng ~id ~machine
        else observation p rng ~id ~machine);
  }
