(* Reference lock manager: the per-node lock manager as it was before it
   was keyed by interned key ids, kept as the specification the library's
   [Txn.Lockmgr] is compared against (test_txn.ml's oracle property). It
   keys locks by name in a [Hashtbl], wakes a release's waiters in that
   table's order, cancels by scanning every lock it ever created and
   rebuilds the whole waits-for graph on each blocked request. The mode
   and verdict types are the library's own, so verdicts compare with
   [=]. *)

module Sim = Simul.Sim

type mode = Txn.Lockmgr.mode =
  | Shared
  | Exclusive
  | Commute_read
  | Commute_update
  | Non_commute

let compatible a b =
  match (a, b) with
  | Shared, Shared -> true
  | Commute_read, (Commute_read | Commute_update)
  | Commute_update, (Commute_read | Commute_update) ->
      true
  | _ -> false

type grant = Txn.Lockmgr.grant = Granted | Deadlock | Timeout | Cancelled

type request = {
  req_owner : int;
  req_mode : mode;
  mutable req_live : bool;  (** false once granted, cancelled or timed out *)
  req_wake : grant -> unit;
}

type lock = { mutable holders : (int * mode) list; queue : request Queue.t }

type t = {
  simulation : Sim.t;
  deadlock_timeout : float;
  locks : (string, lock) Hashtbl.t;
  owner_keys : (int, (string, unit) Hashtbl.t) Hashtbl.t;
  mutable waiting_count : int;
  mutable aborted : int;
}

let create simulation ?(deadlock_timeout = 1.0) () =
  {
    simulation;
    deadlock_timeout;
    locks = Hashtbl.create 64;
    owner_keys = Hashtbl.create 64;
    waiting_count = 0;
    aborted = 0;
  }

let get_lock t key =
  match Hashtbl.find_opt t.locks key with
  | Some l -> l
  | None ->
      let l = { holders = []; queue = Queue.create () } in
      Hashtbl.replace t.locks key l;
      l

let note_held t owner key =
  let keys =
    match Hashtbl.find_opt t.owner_keys owner with
    | Some ks -> ks
    | None ->
        let ks = Hashtbl.create 8 in
        Hashtbl.replace t.owner_keys owner ks;
        ks
  in
  Hashtbl.replace keys key ()

(* Can [owner]'s request in [mode] be granted against current holders?
   Own holdings never conflict (re-entrancy / upgrades past oneself). *)
let holders_allow lock ~owner ~mode =
  List.for_all
    (fun (h_owner, h_mode) -> h_owner = owner || compatible mode h_mode)
    lock.holders

let has_live_waiter lock =
  Queue.fold (fun acc r -> acc || r.req_live) false lock.queue

let incompatible_holders lock ~owner ~mode =
  List.filter_map
    (fun (h_owner, h_mode) ->
      if h_owner <> owner && not (compatible mode h_mode) then Some h_owner
      else None)
    lock.holders

(* Waits-for edges of a request joining at the back of [lock]'s queue: it
   waits for incompatible holders and (FIFO) every live waiter already
   queued ahead of it. *)
let blockers lock ~owner ~mode =
  let from_queue =
    Queue.fold
      (fun acc r ->
        if r.req_live && r.req_owner <> owner then r.req_owner :: acc else acc)
      [] lock.queue
  in
  incompatible_holders lock ~owner ~mode @ from_queue

(* Current waits-for edges for every already-waiting request; a waiter only
   waits for holders and for live waiters {e ahead} of it in the queue. *)
let waits_for_edges t =
  (* lint: hash-order-ok — the edge list only feeds the reachability test
     in [creates_cycle]; cycle existence is order-independent. *)
  Hashtbl.fold
    (fun _key lock acc ->
      let _, acc =
        Queue.fold
          (fun (ahead, acc) r ->
            if not r.req_live then (ahead, acc)
            else
              let hs = incompatible_holders lock ~owner:r.req_owner ~mode:r.req_mode in
              let qs = List.filter (fun o -> o <> r.req_owner) ahead in
              let acc =
                List.fold_left
                  (fun acc b -> (r.req_owner, b) :: acc)
                  acc (hs @ qs)
              in
              (r.req_owner :: ahead, acc))
          ([], acc) lock.queue
      in
      acc)
    t.locks []

(* Would adding edges [owner -> b, b in new_blockers] close a cycle through
   [owner]? DFS over existing edges from each blocker back to [owner]. *)
let creates_cycle t ~owner ~new_blockers =
  let edges = waits_for_edges t in
  let succs o = List.filter_map (fun (a, b) -> if a = o then Some b else None) edges in
  let visited = Hashtbl.create 16 in
  let rec reaches o =
    if o = owner then true
    else if Hashtbl.mem visited o then false
    else begin
      Hashtbl.replace visited o ();
      List.exists reaches (succs o)
    end
  in
  List.exists reaches new_blockers

(* Grant every compatible request from the front of the queue (FIFO, no
   overtaking past an incompatible head). *)
let drain_queue t lock key =
  let rec go () =
    match Queue.peek_opt lock.queue with
    | None -> ()
    | Some r when not r.req_live ->
        ignore (Queue.pop lock.queue);
        go ()
    | Some r ->
        if holders_allow lock ~owner:r.req_owner ~mode:r.req_mode then begin
          ignore (Queue.pop lock.queue);
          r.req_live <- false;
          t.waiting_count <- t.waiting_count - 1;
          lock.holders <- (r.req_owner, r.req_mode) :: lock.holders;
          note_held t r.req_owner key;
          r.req_wake Granted;
          go ()
        end
  in
  go ()

let acquire t ?timeout ~owner ~key ~mode k =
  let timeout =
    match timeout with Some d -> d | None -> t.deadlock_timeout
  in
  let lock = get_lock t key in
  let already_holder = List.exists (fun (h, _) -> h = owner) lock.holders in
  (* Re-entrant requests bypass FIFO fairness: queueing an owner behind a
     waiter that waits for that same owner would self-deadlock. *)
  if
    holders_allow lock ~owner ~mode
    && (already_holder || not (has_live_waiter lock))
  then begin
    (* Re-granting a mode the owner already holds must not push a duplicate
       entry: [held] would report it twice and the holder list would grow on
       every re-entrant acquire. *)
    if not (List.mem (owner, mode) lock.holders) then
      lock.holders <- (owner, mode) :: lock.holders;
    note_held t owner key;
    k Granted
  end
  else begin
    let new_blockers = blockers lock ~owner ~mode in
    if creates_cycle t ~owner ~new_blockers then begin
      t.aborted <- t.aborted + 1;
      k Deadlock
    end
    else
      (* A queued request's verdict resumes [k] on an event of its own. *)
      let waker g = Sim.schedule t.simulation ~delay:0. (fun () -> k g) in
      let req = { req_owner = owner; req_mode = mode; req_live = true; req_wake = waker } in
      Queue.add req lock.queue;
      t.waiting_count <- t.waiting_count + 1;
      if timeout < infinity then
        Sim.schedule t.simulation ~delay:timeout (fun () ->
            if req.req_live then begin
              req.req_live <- false;
              t.waiting_count <- t.waiting_count - 1;
              t.aborted <- t.aborted + 1;
              (* Head may now be unblocked if this was the head. *)
              drain_queue t lock key;
              waker Timeout
            end)
  end

let release_all t ~owner =
  match Hashtbl.find_opt t.owner_keys owner with
  | None -> ()
  | Some keys ->
      Hashtbl.remove t.owner_keys owner;
      (* lint: hash-order-ok — OCaml's unseeded Hashtbl iterates the same
         insertion sequence identically on every run, so the wake order is
         replay-deterministic; sorting here would only reshuffle the golden
         schedules. *)
      Hashtbl.iter
        (fun key () ->
          match Hashtbl.find_opt t.locks key with
          | None -> ()
          | Some lock ->
              lock.holders <-
                List.filter (fun (h, _) -> h <> owner) lock.holders;
              drain_queue t lock key)
        keys;
      (* Cancel any still-waiting requests of this owner (post-abort). The
         wake reason is [Cancelled], not [Timeout]: the owner is being torn
         down, it did not lose a deadlock-timeout race, and callers must not
         account it as one. *)
      (* lint: hash-order-ok — same argument as the wake loop above:
         unseeded Hashtbl order is replay-deterministic. *)
      Hashtbl.iter
        (fun key lock ->
          let cancelled = ref false in
          Queue.iter
            (fun r ->
              if r.req_live && r.req_owner = owner then begin
                r.req_live <- false;
                t.waiting_count <- t.waiting_count - 1;
                cancelled := true;
                r.req_wake Cancelled
              end)
            lock.queue;
          if !cancelled then drain_queue t lock key)
        t.locks

let held t ~owner =
  Hashtbl.fold
    (fun key lock acc ->
      List.fold_left
        (fun acc (h, m) -> if h = owner then (key, m) :: acc else acc)
        acc lock.holders)
    t.locks []
  |> List.sort compare

let waiting t = t.waiting_count
let conflicts_aborted t = t.aborted
