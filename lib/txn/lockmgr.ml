module Sim = Simul.Sim
module Key = Store.Key

type mode = Shared | Exclusive | Commute_read | Commute_update | Non_commute

let compatible a b =
  match (a, b) with
  | Shared, Shared -> true
  | Commute_read, (Commute_read | Commute_update)
  | Commute_update, (Commute_read | Commute_update) ->
      true
  | _ -> false

type grant = Granted | Deadlock | Timeout | Cancelled

(* An owner at this node: the locks it holds and its requests still
   waiting, both newest first. *)
type owner = { o_id : int; mutable o_held : lock list; mutable o_queued : request list }

(* A key with a holder or a waiter; [l_queue] holds the waiting requests
   only, oldest first. *)
and lock = {
  l_key : Key.t;
  mutable l_holders : (owner * mode) list;
  mutable l_queue : request list;
}

and request = {
  r_owner : owner;
  r_mode : mode;
  r_lock : lock;
  mutable r_live : bool;  (** false once granted, timed out or cancelled *)
  r_wake : grant -> unit;
}

(* Both tables are looked up by id and never iterated: [locks] by
   [Key.id], [owners] by owner. *)
type t = {
  sim : Sim.t;
  deadlock_timeout : float;
  locks : (int, lock) Hashtbl.t;
  owners : (int, owner) Hashtbl.t;
  mutable waiting_count : int;
  mutable aborted : int;
}

let create sim ?(deadlock_timeout = 1.0) () =
  {
    sim;
    deadlock_timeout;
    locks = Hashtbl.create 64;
    owners = Hashtbl.create 64;
    waiting_count = 0;
    aborted = 0;
  }

let owner_of t id =
  match Hashtbl.find_opt t.owners id with
  | Some o -> o
  | None ->
      let o = { o_id = id; o_held = []; o_queued = [] } in
      Hashtbl.replace t.owners id o;
      o

let lock_of t key =
  match Hashtbl.find_opt t.locks (Key.id key) with
  | Some l -> l
  | None ->
      let l = { l_key = key; l_holders = []; l_queue = [] } in
      Hashtbl.replace t.locks (Key.id key) l;
      l

(* Records are dropped as soon as they hold and await nothing. *)
let tidy_owner t o =
  if o.o_held = [] && o.o_queued = [] then Hashtbl.remove t.owners o.o_id

let tidy_lock t l =
  if l.l_holders = [] && l.l_queue = [] then Hashtbl.remove t.locks (Key.id l.l_key)

let holds l o = List.exists (fun (h, _) -> h == o) l.l_holders

(* Own holdings never conflict (re-entrancy, upgrades past oneself). *)
let allows l o mode =
  List.for_all (fun (h, m) -> h == o || compatible mode m) l.l_holders

let grant o l mode =
  if not (holds l o) then o.o_held <- l :: o.o_held;
  if not (List.exists (fun (h, m) -> h == o && m = mode) l.l_holders) then
    l.l_holders <- (o, mode) :: l.l_holders

(* Does [f] hold of an owner that a waiter [self] in [mode] on [l] waits
   for: a holder whose mode conflicts, or (FIFO) any waiter queued ahead
   of [stop]? *)
let blocked_by f l self mode stop =
  let rec ahead = function
    | r :: rest when r != stop -> (r.r_owner != self && f r.r_owner) || ahead rest
    | _ -> false
  in
  List.exists (fun (h, m) -> h != self && (not (compatible mode m)) && f h) l.l_holders
  || ahead l.l_queue

(* Would [o] waiting at the back of [l]'s queue close a waits-for cycle?
   The walk follows waits-for edges from [o]'s new blockers through the
   owners that wait, each visited once, and stops as soon as it comes
   back to [o]. *)
let closes_cycle o l mode =
  let visited = ref [] in
  let rec reaches b =
    b == o
    || ((not (List.memq b !visited))
       && begin
         visited := b :: !visited;
         List.exists (fun r -> blocked_by reaches r.r_lock b r.r_mode r) b.o_queued
       end)
  in
  List.exists (fun (h, m) -> h != o && (not (compatible mode m)) && reaches h) l.l_holders
  || List.exists (fun r -> r.r_owner != o && reaches r.r_owner) l.l_queue

(* [r] stops waiting: granted, timed out or cancelled. *)
let settle t r =
  r.r_live <- false;
  t.waiting_count <- t.waiting_count - 1;
  r.r_lock.l_queue <- List.filter (fun q -> q != r) r.r_lock.l_queue;
  r.r_owner.o_queued <- List.filter (fun q -> q != r) r.r_owner.o_queued

(* Grant from the front of the queue while the front is grantable: no
   request overtakes an incompatible one queued before it. *)
let rec drain t l =
  match l.l_queue with
  | r :: _ when allows l r.r_owner r.r_mode ->
      settle t r;
      grant r.r_owner l r.r_mode;
      r.r_wake Granted;
      drain t l
  | _ -> ()

(* The verdict a request gets without waiting, or [None]: it must queue.
   Re-entrant requests bypass FIFO fairness: queueing an owner behind a
   waiter that waits for that same owner would self-deadlock. *)
let attempt t o l mode =
  if allows l o mode && (holds l o || l.l_queue = []) then begin
    grant o l mode;
    Some Granted
  end
  else if closes_cycle o l mode then begin
    t.aborted <- t.aborted + 1;
    tidy_owner t o;
    Some Deadlock
  end
  else None

let enqueue t o l mode timeout wake =
  let r = { r_owner = o; r_mode = mode; r_lock = l; r_live = true; r_wake = wake } in
  l.l_queue <- l.l_queue @ [ r ];
  o.o_queued <- r :: o.o_queued;
  t.waiting_count <- t.waiting_count + 1;
  let timeout = match timeout with Some d -> d | None -> t.deadlock_timeout in
  if timeout < infinity then
    Sim.schedule t.sim ~delay:timeout (fun () ->
        if r.r_live then begin
          settle t r;
          t.aborted <- t.aborted + 1;
          drain t l;
          tidy_lock t l;
          tidy_owner t o;
          wake Timeout
        end)

let acquire_then t ?timeout ~owner ~key ~mode k =
  let o = owner_of t owner and l = lock_of t key in
  match attempt t o l mode with
  | Some verdict -> k verdict
  | None ->
      enqueue t o l mode timeout (fun verdict ->
          Sim.schedule t.sim ~delay:0. (fun () -> k verdict))

let release_all t ~owner =
  match Hashtbl.find_opt t.owners owner with
  | None -> ()
  | Some o ->
      Hashtbl.remove t.owners owner;
      (* Every wait of the owner ends before any key is drained, so no
         drain grants it a second wait on the same key; the withdrawn waits
         are woken once its locks are released. *)
      let queued = List.rev o.o_queued in
      List.iter (settle t) queued;
      List.iter
        (fun l ->
          l.l_holders <- List.filter (fun (h, _) -> h != o) l.l_holders;
          drain t l;
          tidy_lock t l)
        (List.rev o.o_held);
      List.iter
        (fun r ->
          r.r_wake Cancelled;
          drain t r.r_lock;
          tidy_lock t r.r_lock)
        queued

let held t ~owner =
  match Hashtbl.find_opt t.owners owner with
  | None -> []
  | Some o ->
      List.concat_map
        (fun l ->
          List.rev l.l_holders
          |> List.filter_map (fun (h, m) -> if h == o then Some (l.l_key, m) else None))
        (List.rev o.o_held)

let waiting t = t.waiting_count
let locked_keys t = Hashtbl.length t.locks
let conflicts_aborted t = t.aborted

let plan ~read ~write ops =
  let rec merge = function
    | (k, w) :: (k', w') :: rest when Key.equal k k' -> merge ((k, w || w') :: rest)
    | (k, w) :: rest -> (k, if w then write else read) :: merge rest
    | [] -> []
  in
  List.map (fun op -> (Op.key op, Op.is_write op)) ops
  |> List.stable_sort (fun (a, _) (b, _) -> Key.compare a b)
  |> merge
