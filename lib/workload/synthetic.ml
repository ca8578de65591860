module Spec = Txn.Spec
module Op = Txn.Op
module Key = Store.Key

type params = {
  nodes : int;
  shards : int;
  keys_per_node : int;
  fanout : int;
  read_ratio : float;
  nc_ratio : float;
  arrival_rate : float;
  zipf_s : float;
}

let default ~nodes =
  {
    nodes;
    shards = 1;
    keys_per_node = 50;
    fanout = 2;
    read_ratio = 0.25;
    nc_ratio = 0.;
    arrival_rate = 400.;
    zipf_s = 0.5;
  }

(* Names and labels are concatenated, not [Printf.sprintf]'d: the same
   strings for about an eighth of the allocation, and labels are made per
   transaction. A name is a slot's prefix and a node's suffix, so the key
   table below allocates one string per name. *)
let slot_prefix slot = "k" ^ string_of_int slot
let node_suffix node = "@n" ^ string_of_int node
let key ~slot ~node = slot_prefix slot ^ node_suffix node

let generator p =
  if p.nodes <= 0 then invalid_arg "Synthetic: nodes must be > 0";
  if p.fanout <= 0 then invalid_arg "Synthetic: fanout must be > 0";
  if p.shards < 1 || p.nodes mod p.shards <> 0 then
    invalid_arg "Synthetic: shards must divide nodes evenly";
  let popularity = Zipf.create ~n:p.keys_per_node ~s:p.zipf_s in
  (* The key space is finite and fixed, so intern every key once up front:
     [make] runs per generated transaction on the bench hot path, and a
     name and a lookup per op there are pure churn. Same names, same RNG
     draws — schedules are unchanged. *)
  let key_table =
    let suffixes = Array.init p.nodes node_suffix in
    Array.init p.keys_per_node (fun slot ->
        let prefix = slot_prefix slot in
        Array.map (fun suffix -> Key.intern (prefix ^ suffix)) suffixes)
  in
  let key ~slot ~node = key_table.(slot).(node) in
  let make_legacy rng ~id =
    let slot = Zipf.sample popularity rng in
    let nodes = Generator.pick_distinct rng ~n:p.fanout ~among:p.nodes in
    let u = Random.State.float rng 1. in
    if u < p.read_ratio then begin
      let ops_of n = [ Op.Read (key ~slot ~node:n) ] in
      Spec.make ~id
        ~label:("read" ^ string_of_int id)
        (Generator.fanout_tree ~ops_of nodes)
    end
    else if Random.State.float rng 1. < p.nc_ratio then begin
      let amount = Random.State.float rng 100. in
      let ops_of n = [ Op.Overwrite (key ~slot ~node:n, amount) ] in
      Spec.make ~id
        ~label:("ncupd" ^ string_of_int id)
        (Generator.fanout_tree ~ops_of nodes)
    end
    else begin
      let ops_of n = [ Op.Incr (key ~slot ~node:n, 1.) ] in
      Spec.make ~id
        ~label:("upd" ^ string_of_int id)
        (Generator.fanout_tree ~ops_of nodes)
    end
  in
  (* Shard-respecting variant: a sharded engine rejects update trees that
     cross shards (each shard has its own version frontier), so updates
     confine their fan-out to one uniformly-drawn shard's node block, while
     reads keep the unrestricted fan-out — exercising the cross-shard
     read-vector path. Only used with [shards > 1]; the legacy draw
     sequence (and hence every recorded schedule) is untouched at 1. *)
  let per = p.nodes / p.shards in
  let make_sharded rng ~id =
    let slot = Zipf.sample popularity rng in
    let u = Random.State.float rng 1. in
    if u < p.read_ratio then begin
      let nodes = Generator.pick_distinct rng ~n:p.fanout ~among:p.nodes in
      let ops_of n = [ Op.Read (key ~slot ~node:n) ] in
      Spec.make ~id
        ~label:("read" ^ string_of_int id)
        (Generator.fanout_tree ~ops_of nodes)
    end
    else begin
      let shard = Random.State.int rng p.shards in
      let nodes =
        List.map
          (fun i -> (shard * per) + i)
          (Generator.pick_distinct rng ~n:p.fanout ~among:per)
      in
      if Random.State.float rng 1. < p.nc_ratio then begin
        let amount = Random.State.float rng 100. in
        let ops_of n = [ Op.Overwrite (key ~slot ~node:n, amount) ] in
        Spec.make ~id
          ~label:("ncupd" ^ string_of_int id)
          (Generator.fanout_tree ~ops_of nodes)
      end
      else begin
        let ops_of n = [ Op.Incr (key ~slot ~node:n, 1.) ] in
        Spec.make ~id
          ~label:("upd" ^ string_of_int id)
          (Generator.fanout_tree ~ops_of nodes)
      end
    end
  in
  {
    Generator.gen_name = "synthetic";
    arrival_rate = p.arrival_rate;
    make = (if p.shards <= 1 then make_legacy else make_sharded);
  }
