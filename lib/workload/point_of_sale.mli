(** Point-of-sale inventory workload (paper §1 and §6: "inventory
    management in a point-of-sale system").

    Stores are nodes; node 0 doubles as headquarters. A {e sale} decrements
    the store's inventory for a product, appends the receipt, and bumps the
    chain-wide sold-count summary at headquarters — all commuting. A
    {e stock report} reads one product's inventory across all stores plus
    the HQ summary. With [nc_ratio] > 0, that fraction of updates are
    {e price changes}: blind [Overwrite]s of a product's price at several
    stores, which do not commute and therefore exercise NC3V (paper §5). *)

type params = {
  stores : int;  (** = number of nodes; node 0 is also HQ *)
  products : int;
  read_ratio : float;
  nc_ratio : float;  (** fraction of updates that are price changes *)
  price_fanout : int;  (** stores touched by one price change *)
  arrival_rate : float;
  zipf_s : float;
}

(** [default ~nodes] is the stock parameter set for a chain of [nodes]
    stores (sales-heavy mix, occasional price changes). *)
val default : nodes:int -> params

(** [generator p] is the point-of-sale transaction stream for [p]. *)
val generator : params -> Generator.t
