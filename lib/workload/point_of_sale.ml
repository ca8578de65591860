module Spec = Txn.Spec
module Op = Txn.Op

type params = {
  stores : int;
  products : int;
  read_ratio : float;
  nc_ratio : float;
  price_fanout : int;
  arrival_rate : float;
  zipf_s : float;
}

let default ~nodes =
  {
    stores = nodes;
    products = 50;
    read_ratio = 0.2;
    nc_ratio = 0.;
    price_fanout = 2;
    arrival_rate = 300.;
    zipf_s = 0.9;
  }

let inventory_key ~product ~store =
  Store.Key.intern (Printf.sprintf "inv:p%d@s%d" product store)

let sold_key ~product = Store.Key.intern (Printf.sprintf "sold:p%d@hq" product)

let price_key ~product ~store =
  Store.Key.intern (Printf.sprintf "price:p%d@s%d" product store)

let sale p rng ~id ~product =
  let store = Random.State.int rng p.stores in
  let qty = 1. +. float_of_int (Random.State.int rng 3) in
  let store_ops =
    [
      Op.Incr (inventory_key ~product ~store, -.qty);
      Op.Append (inventory_key ~product ~store, Printf.sprintf "receipt-%d" id);
    ]
  in
  let hq_ops = [ Op.Incr (sold_key ~product, qty) ] in
  let tree =
    if store = 0 then Spec.subtxn 0 (store_ops @ hq_ops)
    else Spec.subtxn ~children:[ Spec.subtxn 0 hq_ops ] store store_ops
  in
  Spec.make ~id ~label:(Printf.sprintf "sale%d" id) tree

let price_change p rng ~id ~product =
  let stores = Generator.pick_distinct rng ~n:p.price_fanout ~among:p.stores in
  let new_price = 1. +. Random.State.float rng 99. in
  let ops_of store = [ Op.Overwrite (price_key ~product ~store, new_price) ] in
  Spec.make ~id
    ~label:(Printf.sprintf "reprice%d" id)
    (Generator.fanout_tree ~ops_of stores)

let stock_report p rng ~id ~product =
  ignore rng;
  let all = List.init p.stores Fun.id in
  let ops_of store =
    if store = 0 then
      [ Op.Read (inventory_key ~product ~store); Op.Read (sold_key ~product) ]
    else [ Op.Read (inventory_key ~product ~store) ]
  in
  Spec.make ~id
    ~label:(Printf.sprintf "report%d" id)
    (Generator.fanout_tree ~ops_of all)

let generator p =
  if p.stores <= 0 then invalid_arg "Point_of_sale: stores must be > 0";
  let popularity = Zipf.create ~n:p.products ~s:p.zipf_s in
  {
    Generator.gen_name = "point-of-sale";
    arrival_rate = p.arrival_rate;
    make =
      (fun rng ~id ->
        let product = Zipf.sample popularity rng in
        if Random.State.float rng 1. < p.read_ratio then
          stock_report p rng ~id ~product
        else if Random.State.float rng 1. < p.nc_ratio then
          price_change p rng ~id ~product
        else sale p rng ~id ~product);
  }
