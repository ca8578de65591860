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
module Lockmgr = Txn.Lockmgr
module Counter_set = Stats.Counter_set

type config = {
  nodes : int;
  latency : Latency.t;
  think_time : float;
  deadlock_timeout : float;
}

let default_config ~nodes =
  {
    nodes;
    latency = Latency.Constant 0.005;
    think_time = 0.0001;
    deadlock_timeout = 1.0;
  }

type vote = Vote_commit | Vote_abort of string

type root_submit = {
  rs_submit_time : float;
  rs_result : Result.t Ivar.t;
  mutable rs_root_commit : float;
}

type msg =
  | Subtxn of {
      txn_id : int;
      label : string;
      kind : Spec.kind;
      source : int;
      parent : (int * int) option;
      tree : Spec.subtxn;
      root : root_submit option;
    }
  | Vote of {
      pending_id : int;
      reads : (Store.Key.t * Value.t) list;
      vote : vote;
      nodes : int list;
    }
  | Decision of { txn_id : int; commit : bool }

type pending = {
  p_id : int;
  p_txn : int;
  p_label : string;
  p_source : int;
  p_parent : (int * int) option;
  mutable p_outstanding : int;
  mutable p_local_done : bool;
  mutable p_reads : (Store.Key.t * Value.t) list;
  mutable p_vote : vote;
  mutable p_nodes : int list;
  mutable p_buffered : (Store.Key.t * Op.t) list;  (* reversed *)
  p_root : root_submit option;
  mutable p_stage : int;  (* the next step of {!exec_subtxn} *)
  mutable p_plan : (Store.Key.t * Lockmgr.mode) list;  (* locks still to take *)
}

type node = {
  id : int;
  store : Value.t Mvstore.t;
  locks : Lockmgr.t;
  local_cc : Semaphore.t;
  pendings : (int, pending) Hashtbl.t;
  mutable next_pending : int;
  awaiting : (int, int list ref) Hashtbl.t;  (* txn -> pending ids *)
  mutable paused_until : float;  (* fault injection: inbox frozen until then *)
}

type t = {
  sim : Sim.t;
  cfg : config;
  net : msg Network.t;
  faults : Fault.Injector.t;
  nodes : node array;
  counters : Counter_set.t;
}

let cstat t name = Counter_set.incr t.counters name ()
let send t ~src ~dst msg = Network.send t.net ~src ~dst msg

let combine_vote a b =
  match (a, b) with Vote_abort r, _ -> Vote_abort r | _, v -> v

(* Apply the 2PC decision at a node: materialize or discard buffered writes
   and release all the transaction's locks. *)
let apply_decision t node ~txn_id ~commit =
  ignore t;
  match Hashtbl.find_opt node.awaiting txn_id with
  | None -> ()
  | Some ids ->
      Hashtbl.remove node.awaiting txn_id;
      List.iter
        (fun pid ->
          match Hashtbl.find_opt node.pendings pid with
          | None -> ()
          | Some p ->
              Hashtbl.remove node.pendings pid;
              if commit then
                List.iter
                  (fun (key, op) ->
                    Mvstore.write_upward node.store ~key ~version:0 ~init:Value.empty
                      ~f:Op.apply op p.p_txn)
                  (List.rev p.p_buffered))
        (List.rev !ids);
      Lockmgr.release_all node.locks ~owner:txn_id

let register_awaiting node txn_id pid =
  let ids =
    match Hashtbl.find_opt node.awaiting txn_id with
    | Some ids -> ids
    | None ->
        let ids = ref [] in
        Hashtbl.replace node.awaiting txn_id ids;
        ids
  in
  ids := pid :: !ids

let maybe_finish t node p =
  if p.p_local_done && p.p_outstanding = 0 then begin
    match p.p_parent with
    | Some (parent_node, parent_pid) ->
        (* Participant: register for the decision and vote. *)
        register_awaiting node p.p_txn p.p_id;
        send t ~src:node.id ~dst:parent_node
          (Vote
             {
               pending_id = parent_pid;
               reads = p.p_reads;
               vote = p.p_vote;
               nodes = p.p_nodes;
             })
    | None ->
        (* Root: decide and broadcast phase 2. *)
        let rs = match p.p_root with Some rs -> rs | None -> assert false in
        let commit = p.p_vote = Vote_commit in
        register_awaiting node p.p_txn p.p_id;
        apply_decision t node ~txn_id:p.p_txn ~commit;
        List.iter
          (fun n ->
            if n <> node.id then
              send t ~src:node.id ~dst:n (Decision { txn_id = p.p_txn; commit }))
          p.p_nodes;
        cstat t (if commit then "txn.committed" else "txn.aborted");
        let outcome =
          if commit then Result.Committed
          else
            Result.Aborted
              (match p.p_vote with
              | Vote_abort r -> r
              | Vote_commit -> "unknown")
        in
        let now = Sim.now t.sim in
        rs.rs_root_commit <- now;
        Ivar.fill rs.rs_result
          {
            Result.txn_id = p.p_txn;
            served_by = node.id;
            outcome;
            version = 0;
            reads = p.p_reads;
            submit_time = rs.rs_submit_time;
            root_commit_time = now;
            complete_time = now;
          }
  end

(* The operations, inside the local critical section: reads see the
   store and this transaction's own buffered writes; writes are buffered
   until the decision. *)
let run_ops node p ops =
  List.iter
    (fun op ->
      match op with
      | Op.Read key ->
          let value =
            (* A buffered write by this same transaction must be
               visible to its own later reads. *)
            let base =
              match Mvstore.read_visible node.store ~key ~version:0 with
              | Some v -> v
              | None -> Value.empty
            in
            List.fold_left
              (fun acc (k, op) ->
                if Store.Key.equal k key then Op.apply op p.p_txn acc else acc)
              base (List.rev p.p_buffered)
          in
          p.p_reads <- p.p_reads @ [ (key, value) ]
      | Op.Incr _ | Op.Append _ | Op.Overwrite _ ->
          p.p_buffered <- (Op.key op, op) :: p.p_buffered)
    ops

let local_done t node p =
  p.p_local_done <- true;
  maybe_finish t node p

(* One subtransaction's local work as one staged closure, [resume], on the
   events a process running the same steps takes: it starts on an event
   queued at the current instant; the tree's think and [think_time] are
   [Sim.after]'s two events; the lock plan is taken key by key through
   {!Lockmgr.acquire_then} and the local critical section's permit
   through {!Semaphore.acquire_then}, each resuming on the event its wake
   queues when contended. [p.p_stage] names the next step; a refused lock
   records the abort vote and skips the operations and children. A
   failing step stops the run under the subtransaction's name. *)
let exec_subtxn t node p (tree : Spec.subtxn) =
  let rec resume () =
    try
      match p.p_stage with
      | 0 ->
          p.p_stage <- 1;
          p.p_plan <- Lockmgr.plan ~read:Lockmgr.Shared ~write:Lockmgr.Exclusive tree.Spec.ops;
          if tree.Spec.think > 0. then Sim.after t.sim tree.Spec.think resume else resume ()
      | 1 -> (
          match p.p_plan with
          | (key, mode) :: plan ->
              p.p_plan <- plan;
              Lockmgr.acquire_then node.locks ~owner:p.p_txn ~key ~mode locked
          | [] ->
              p.p_stage <- 2;
              Semaphore.acquire_then t.sim node.local_cc resume)
      | 2 ->
          p.p_stage <- 3;
          if t.cfg.think_time > 0. then Sim.after t.sim t.cfg.think_time resume else resume ()
      | 3 ->
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
                     kind = Spec.Commuting;
                     source = node.id;
                     parent = Some (node.id, p.p_id);
                     tree = child;
                     root = None;
                   }))
            tree.Spec.children;
          local_done t node p
      | _ ->
          cstat t "txn.lock_failure";
          local_done t node p
    with exn ->
      Sim.fail t.sim (Printf.sprintf "2pc-n%d/%s#%d" node.id p.p_label p.p_id) exn
  and locked = function
    | Lockmgr.Granted -> resume ()
    | Lockmgr.Deadlock -> refuse "deadlock"
    | Lockmgr.Timeout -> refuse "lock-timeout"
    | Lockmgr.Cancelled -> refuse "cancelled"
  and refuse reason =
    p.p_vote <- Vote_abort reason;
    p.p_stage <- 4;
    resume ()
  in
  Sim.schedule t.sim ~delay:0. resume

let handle_msg t node = function
  | Subtxn { txn_id; label; source; parent; tree; root; kind = _ } ->
      node.next_pending <- node.next_pending + 1;
      let p =
        {
          p_id = node.next_pending;
          p_txn = txn_id;
          p_label = label;
          p_source = source;
          p_parent = parent;
          p_outstanding = 0;
          p_local_done = false;
          p_reads = [];
          p_vote = Vote_commit;
          p_nodes = [ node.id ];
          p_buffered = [];
          p_root = root;
          p_stage = 0;
          p_plan = [];
        }
      in
      Hashtbl.replace node.pendings p.p_id p;
      exec_subtxn t node p tree
  | Vote { pending_id; reads; vote; nodes } -> (
      match Hashtbl.find_opt node.pendings pending_id with
      | None ->
          invalid_arg
            (Printf.sprintf "Global_2pc: vote for unknown pending %d"
               pending_id)
      | Some p ->
          p.p_reads <- p.p_reads @ reads;
          p.p_vote <- combine_vote p.p_vote vote;
          p.p_nodes <- List.sort_uniq compare (p.p_nodes @ nodes);
          p.p_outstanding <- p.p_outstanding - 1;
          maybe_finish t node p)
  | Decision { txn_id; commit } -> apply_decision t node ~txn_id ~commit

let create ?faults sim (cfg : config) =
  if cfg.nodes <= 0 then invalid_arg "Global_2pc.create: nodes must be positive";
  let net = Network.create sim ~size:cfg.nodes ~latency:cfg.latency () in
  let faults =
    match faults with
    | Some f -> f
    | None -> Fault.Injector.create sim Fault.Plan.none
  in
  Fault.Injector.install faults net;
  let nodes =
    Array.init cfg.nodes (fun i ->
        {
          id = i;
          store = Mvstore.create ();
          locks = Lockmgr.create sim ~deadlock_timeout:cfg.deadlock_timeout ();
          local_cc = Semaphore.create 1;
          pendings = Hashtbl.create 64;
          next_pending = 0;
          awaiting = Hashtbl.create 16;
          paused_until = 0.;
        })
  in
  let t = { sim; cfg; net; faults; nodes; counters = Counter_set.create () } in
  (* 2PC deliberately has no crash recovery: the crash/restart hooks stay
     no-ops, so a crashed node just loses its traffic — that asymmetry
     against 3V's late-node recovery is what experiment E12 measures. *)
  Fault.Injector.set_node_hooks faults
    ~pause:(fun ~node ~duration:_ ~until_ ->
      if node >= 0 && node < cfg.nodes then begin
        let nd = nodes.(node) in
        nd.paused_until <- Float.max nd.paused_until until_
      end)
    ();
  (* Each node's server is the library drain over its inbox. A paused
     node holds the message in hand until the pause ends, on
     [Sim.after]'s two events, and handles no other before it. *)
  Array.iter
    (fun node ->
      let name = Printf.sprintf "2pc-node-%d" node.id in
      Mailbox.serve sim (Network.inbox net ~node:node.id) ~name (fun msg next ->
          let now = Sim.now sim in
          if now < node.paused_until then
            Sim.after sim (node.paused_until -. now) (fun () ->
                try
                  handle_msg t node msg;
                  next ()
                with exn -> Sim.fail sim name exn)
          else begin
            handle_msg t node msg;
            next ()
          end))
    nodes;
  t

let name _ = "global-2pc"

let submit t (spec : Spec.t) =
  let result = Ivar.create () in
  let now = Sim.now t.sim in
  let rs = { rs_submit_time = now; rs_result = result; rs_root_commit = now } in
  cstat t "txn.submitted";
  let root_node = spec.Spec.root.Spec.node in
  send t ~src:root_node ~dst:root_node
    (Subtxn
       {
         txn_id = spec.Spec.id;
         label = spec.Spec.label;
         kind = spec.Spec.kind;
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
  Counter_set.merge out (Fault.Injector.stats t.faults)

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
    invalid_arg "Global_2pc.store: node out of range";
  t.nodes.(node).store

let inject_pause t ~node ~at ~duration =
  if node < 0 || node >= t.cfg.nodes then
    invalid_arg "Global_2pc.inject_pause: node out of range";
  Fault.Injector.pause t.faults ~node ~at ~duration

(* This baseline has no separate coordinator endpoint: every transaction's
   root node coordinates its own 2PC. The closest comparable fault is
   crashing node 0, the conventional coordination site — there is no WAL
   and no recovery protocol here, which is exactly the comparison point. *)
let inject_coord_crash t ~at ~restart =
  Fault.Injector.crash t.faults ~node:0 ~at ~restart

