module Spec = Txn.Spec
module Op = Txn.Op

type params = {
  regions : int;
  customers : int;
  read_ratio : float;
  audit_ratio : float;
  arrival_rate : float;
  zipf_s : float;
}

let default ~nodes =
  {
    regions = nodes;
    customers = 200;
    read_ratio = 0.2;
    audit_ratio = 0.3;
    arrival_rate = 500.;
    zipf_s = 0.6;
  }

let balance_key ~customer ~region = Printf.sprintf "cust%d@r%d" customer region
let region_total_key ~region = Store.Key.intern (Printf.sprintf "total@r%d" region)

let record_call p rng ~id ~customer =
  let caller_region = Random.State.int rng p.regions in
  let callee_region = Random.State.int rng p.regions in
  let minutes = 1. +. Random.State.float rng 30. in
  let caller_ops =
    let balance = Store.Key.intern (balance_key ~customer ~region:caller_region) in
    [
      Op.Append (balance, Printf.sprintf "call-%d-%.0fmin" id minutes);
      Op.Incr (balance, 0.1 *. minutes);
      Op.Incr (region_total_key ~region:caller_region, 0.1 *. minutes);
    ]
  in
  let callee_ops =
    [
      Op.Incr (region_total_key ~region:callee_region, 0.05 *. minutes);
      Op.Append
        ( region_total_key ~region:callee_region,
          Printf.sprintf "interconnect-%d" id );
    ]
  in
  let tree =
    if callee_region = caller_region then
      Spec.subtxn caller_region (caller_ops @ callee_ops)
    else
      Spec.subtxn
        ~children:[ Spec.subtxn callee_region callee_ops ]
        caller_region caller_ops
  in
  Spec.make ~id ~label:(Printf.sprintf "call%d" id) tree

let billing p rng ~id ~customer =
  (* Read the customer's balance in two regions (home + roaming). *)
  let regions = Generator.pick_distinct rng ~n:2 ~among:p.regions in
  let ops_of r = [ Op.Read (Store.Key.intern (balance_key ~customer ~region:r)) ] in
  Spec.make ~id
    ~label:(Printf.sprintf "bill%d" id)
    (Generator.fanout_tree ~ops_of regions)

let audit p rng ~id =
  let root = Random.State.int rng p.regions in
  let rest = List.filter (fun r -> r <> root) (List.init p.regions Fun.id) in
  let ops_of r = [ Op.Read (region_total_key ~region:r) ] in
  Spec.make ~id
    ~label:(Printf.sprintf "audit%d" id)
    (Generator.fanout_tree ~ops_of (root :: rest))

let generator p =
  if p.regions <= 0 then invalid_arg "Call_recording: regions must be > 0";
  let popularity = Zipf.create ~n:p.customers ~s:p.zipf_s in
  {
    Generator.gen_name = "call-recording";
    arrival_rate = p.arrival_rate;
    make =
      (fun rng ~id ->
        if Random.State.float rng 1. < p.read_ratio then begin
          if Random.State.float rng 1. < p.audit_ratio then audit p rng ~id
          else billing p rng ~id ~customer:(Zipf.sample popularity rng)
        end
        else record_call p rng ~id ~customer:(Zipf.sample popularity rng));
  }
