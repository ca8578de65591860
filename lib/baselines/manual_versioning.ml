module Sim = Simul.Sim
module Ivar = Simul.Ivar
module Semaphore = Simul.Semaphore
module Mailbox = Simul.Mailbox
module Network = Netsim.Network
module Latency = Netsim.Latency
module Mvstore = Store.Mvstore
module Spec = Txn.Spec
module Op = Txn.Op
module Value = Txn.Value
module Result = Txn.Result
module Counter_set = Stats.Counter_set

type schedule =
  | Unversioned
  | Periodic of { period : float; safety_delay : float }

type config = {
  nodes : int;
  latency : Latency.t;
  think_time : float;
  schedule : schedule;
}

let default_config ~nodes =
  {
    nodes;
    latency = Latency.Constant 0.005;
    think_time = 0.0001;
    schedule = Periodic { period = 1.0; safety_delay = 0.2 };
  }

type root_submit = {
  rs_submit_time : float;
  rs_result : Result.t Ivar.t;
  mutable rs_root_commit : float;
}

type msg =
  | Subtxn of {
      txn_id : int;
      label : string;
      version : int;  (** period-derived data version, stamped at the root *)
      source : int;
      parent : (int * int) option;
      tree : Spec.subtxn;
      root : root_submit option;
    }
  | Completion of { pending_id : int; reads : (Store.Key.t * Value.t) list }

type pending = {
  p_id : int;
  p_txn : int;
  p_label : string;
  p_version : int;
  p_parent : (int * int) option;
  mutable p_outstanding : int;
  mutable p_local_done : bool;
  mutable p_reads : (Store.Key.t * Value.t) list;
  p_root : root_submit option;
  mutable p_stage : int;  (* the next step of {!exec_subtxn} *)
}

type node = {
  id : int;
  store : Value.t Mvstore.t;
  local_cc : Semaphore.t;
  pendings : (int, pending) Hashtbl.t;
  mutable next_pending : int;
}

type t = {
  sim : Sim.t;
  cfg : config;
  net : msg Network.t;
  nodes : node array;
  counters : Counter_set.t;
  mutable pub_outages : (float * float) list;
      (** (at, restart) windows during which the read-version publisher —
          this scheme's coordinator analogue — is down *)
}

(* Period of a submission time; updates of period π write version π + 1.
   Unversioned, everything is version 0. *)
let update_version_at t ~now =
  match t.cfg.schedule with
  | Unversioned -> 0
  | Periodic { period; _ } -> int_of_float (Float.floor (now /. period)) + 1

(* During a publisher outage the read-version publication is frozen at the
   window's start: reads keep using the last version published before the
   crash, staleness grows linearly, and the restart catches up instantly
   (there is no re-drive — the publication is a pure function of time). *)
let publication_time t ~now =
  List.fold_left
    (fun eff (at, restart) ->
      if now >= at && now < restart then Float.min eff at else eff)
    now t.pub_outages

(* Latest period σ closed and aged past the safety delay; reads use σ + 1,
   or the initial version 0 when no period is readable yet. *)
let read_version_at t ~now =
  match t.cfg.schedule with
  | Unversioned -> 0
  | Periodic { period; safety_delay } ->
      let now = publication_time t ~now in
      let sigma =
        int_of_float (Float.floor ((now -. safety_delay) /. period)) - 1
      in
      if sigma < 0 then 0 else sigma + 1

let name t =
  match t.cfg.schedule with
  | Unversioned -> "no-coordination"
  | Periodic _ -> "manual-versioning"

let cstat t name = Counter_set.incr t.counters name ()
let send t ~src ~dst msg = Network.send t.net ~src ~dst msg

let maybe_finish t node p =
  if p.p_local_done && p.p_outstanding = 0 then begin
    Hashtbl.remove node.pendings p.p_id;
    match p.p_parent with
    | Some (parent_node, parent_pid) ->
        send t ~src:node.id ~dst:parent_node
          (Completion { pending_id = parent_pid; reads = p.p_reads })
    | None ->
        let rs = match p.p_root with Some rs -> rs | None -> assert false in
        cstat t "txn.committed";
        Ivar.fill rs.rs_result
          {
            Result.txn_id = p.p_txn;
            served_by = node.id;
            outcome = Result.Committed;
            version = p.p_version;
            reads = p.p_reads;
            submit_time = rs.rs_submit_time;
            root_commit_time = rs.rs_root_commit;
            complete_time = Sim.now t.sim;
          }
  end

(* The operations, inside the local critical section, at the
   subtransaction's version. *)
let run_ops node p ops =
  List.iter
    (fun op ->
      match op with
      | Op.Read key ->
          let value =
            match Mvstore.read_visible node.store ~key ~version:p.p_version with
            | Some v -> v
            | None -> Value.empty
          in
          p.p_reads <- p.p_reads @ [ (key, value) ]
      | Op.Incr _ | Op.Append _ | Op.Overwrite _ ->
          Mvstore.write_upward node.store ~key:(Op.key op) ~version:p.p_version
            ~init:Value.empty ~f:Op.apply op p.p_txn)
    ops

(* One subtransaction's local work as one staged closure, [resume], on the
   events a process running the same steps takes: it starts on an event
   queued at the current instant; the tree's think and [think_time] are
   [Sim.after]'s two events; the local critical section's permit comes
   through {!Semaphore.acquire_then}, resuming on the event its release
   queues when contended. [p.p_stage] names the next step. A failing step
   stops the run under the subtransaction's name. *)
let exec_subtxn t node p (tree : Spec.subtxn) =
  let rec resume () =
    try
      match p.p_stage with
      | 0 ->
          p.p_stage <- 1;
          if tree.Spec.think > 0. then Sim.after t.sim tree.Spec.think resume else resume ()
      | 1 ->
          p.p_stage <- 2;
          Semaphore.acquire_then t.sim node.local_cc resume
      | 2 ->
          p.p_stage <- 3;
          if t.cfg.think_time > 0. then Sim.after t.sim t.cfg.think_time resume else resume ()
      | _ ->
          run_ops node p tree.Spec.ops;
          Semaphore.release node.local_cc;
          cstat t "subtxn.executed";
          List.iter
            (fun (child : Spec.subtxn) ->
              p.p_outstanding <- p.p_outstanding + 1;
              send t ~src:node.id ~dst:child.Spec.node
                (Subtxn
                   {
                     txn_id = p.p_txn;
                     label = p.p_label;
                     version = p.p_version;
                     source = node.id;
                     parent = Some (node.id, p.p_id);
                     tree = child;
                     root = None;
                   }))
            tree.Spec.children;
          (match p.p_root with
          | Some rs -> rs.rs_root_commit <- Sim.now t.sim
          | None -> ());
          p.p_local_done <- true;
          maybe_finish t node p
    with exn ->
      Sim.fail t.sim (Printf.sprintf "%s-n%d/%s#%d" (name t) node.id p.p_label p.p_id) exn
  in
  Sim.schedule t.sim ~delay:0. resume

let handle_msg t node = function
  | Subtxn { txn_id; label; version; source = _; parent; tree; root } ->
      node.next_pending <- node.next_pending + 1;
      let p =
        {
          p_id = node.next_pending;
          p_txn = txn_id;
          p_label = label;
          p_version = version;
          p_parent = parent;
          p_outstanding = 0;
          p_local_done = false;
          p_reads = [];
          p_root = root;
          p_stage = 0;
        }
      in
      Hashtbl.replace node.pendings p.p_id p;
      exec_subtxn t node p tree
  | Completion { pending_id; reads } -> (
      match Hashtbl.find_opt node.pendings pending_id with
      | None ->
          invalid_arg
            (Printf.sprintf
               "Manual_versioning: completion for unknown pending %d"
               pending_id)
      | Some p ->
          p.p_reads <- p.p_reads @ reads;
          p.p_outstanding <- p.p_outstanding - 1;
          maybe_finish t node p)

let create sim (cfg : config) =
  if cfg.nodes <= 0 then
    invalid_arg "Manual_versioning.create: nodes must be positive";
  (match cfg.schedule with
  | Periodic { period; _ } when period <= 0. ->
      invalid_arg "Manual_versioning.create: period must be positive"
  | _ -> ());
  let net = Network.create sim ~size:cfg.nodes ~latency:cfg.latency () in
  let nodes =
    Array.init cfg.nodes (fun i ->
        {
          id = i;
          store = Mvstore.create ();
          local_cc = Semaphore.create 1;
          pendings = Hashtbl.create 64;
          next_pending = 0;
        })
  in
  let t =
    { sim; cfg; net; nodes; counters = Counter_set.create (); pub_outages = [] }
  in
  Array.iter
    (fun node ->
      Mailbox.serve sim (Network.inbox net ~node:node.id)
        ~name:(Printf.sprintf "%s-node-%d" (name t) node.id) (fun msg next ->
          handle_msg t node msg;
          next ()))
    nodes;
  t

let submit t (spec : Spec.t) =
  let result = Ivar.create () in
  let now = Sim.now t.sim in
  let rs = { rs_submit_time = now; rs_result = result; rs_root_commit = now } in
  cstat t "txn.submitted";
  let version =
    if spec.Spec.kind = Spec.Read_only then read_version_at t ~now
    else update_version_at t ~now
  in
  let root_node = spec.Spec.root.Spec.node in
  send t ~src:root_node ~dst:root_node
    (Subtxn
       {
         txn_id = spec.Spec.id;
         label = spec.Spec.label;
         version;
         source = root_node;
         parent = None;
         tree = spec.Spec.root;
         root = Some rs;
       });
  result

let stats t =
  let out = Counter_set.merge t.counters (Counter_set.create ()) in
  Counter_set.incr out "net.messages" ~by:(Network.messages_sent t.net) ();
  Counter_set.incr out "net.remote_messages"
    ~by:(Network.remote_messages_sent t.net) ();
  out

let packed t =
  Txn.Engine_intf.Packed
    ( (module struct
        type nonrec t = t

        let name = name
        let submit = submit
        let stats = stats
      end),
      t )

let store t ~node =
  if node < 0 || node >= t.cfg.nodes then
    invalid_arg "Manual_versioning.store: node out of range";
  t.nodes.(node).store

let inject_coord_crash t ~at ~restart =
  if restart <= at then
    invalid_arg
      "Manual_versioning.inject_coord_crash: restart must be after the crash \
       time";
  cstat t "fault.coord_crashes";
  t.pub_outages <- (at, restart) :: t.pub_outages

