(** Telephone call-recording workload (paper §6; "AT&T's call recording
    system records several million calls every hour").

    Regions are nodes. Recording a call appends a call-detail record and
    increments the caller's balance in the caller's region, increments the
    callee-side interconnect summary in the callee's region, and bumps each
    region's running total — the classic detail-plus-summary shape of data
    recording systems. Reads are either {e billing} queries (one customer's
    balance plus their detail records) or {e audit} queries (every region's
    running total — a full-fan-out read that is very sensitive to partial
    observation). *)

type params = {
  regions : int;  (** = number of nodes *)
  customers : int;
  read_ratio : float;
  audit_ratio : float;  (** fraction of reads that are audits *)
  arrival_rate : float;
  zipf_s : float;
}

(** [default ~nodes] is the stock parameter set for [nodes] regions
    (recording-heavy mix, a small share of audit reads). *)
val default : nodes:int -> params

(** [generator p] is the call-recording transaction stream for [p]. *)
val generator : params -> Generator.t

(** [balance_key ~customer ~region] names a customer's balance record in
    one region. *)
val balance_key : customer:int -> region:int -> string
