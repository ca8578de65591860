(* Published vector + per-(shard, version) pending tallies. [published]
   only ever grows per component ([publish] takes a max), and [assign]
   copies it atomically — the simulation is cooperatively scheduled and
   nothing here yields — so any two assigned vectors are componentwise
   comparable. That total order is what kills cross-shard read-read MVSG
   cycles: a cycle would need two transactions each reading "newer" than
   the other in different shards, i.e. incomparable vectors.

   [pending] counts read entries assigned a version that have not yet
   arrived at their target shard and opened a counter pair there. Until
   arrival the entry is invisible to the shard's R/C quiescence poll, so
   the shard coordinator consults {!pending} and defers retiring the old
   read version while any assignment against it is still in flight —
   closing the assignment→arrival window the GC race would otherwise
   slip through. *)

(* One shard's pending tallies: [n] (version, count) pairs, in no order,
   every count positive. Retirement already waits for a version's pending
   entries, so only live read versions appear: a handful at most, found by
   a linear scan. *)
type tally = {
  mutable versions : int array;
  mutable counts : int array;
  mutable n : int;
}

type t = {
  shards : int;
  published : int array;
  pending : tally array;  (* per shard *)
  mutable assigned : int;  (* vectors handed out (accounting) *)
}

let create ~shards ~init_vr =
  if shards < 1 then invalid_arg "Shard.Rvector.create: shards must be >= 1";
  {
    shards;
    published = Array.make shards init_vr;
    pending =
      Array.init shards (fun _ -> { versions = Array.make 4 0; counts = Array.make 4 0; n = 0 });
    assigned = 0;
  }


let check_shard t s ctx =
  if s < 0 || s >= t.shards then
    invalid_arg (Printf.sprintf "Shard.Rvector.%s: shard %d out of range" ctx s)

let publish t ~shard ~vr =
  check_shard t shard "publish";
  if vr > t.published.(shard) then t.published.(shard) <- vr

let vector t = Array.copy t.published

(* The position of [version] in [tl] at or after [i], or -1. *)
let rec index tl version i =
  if i >= tl.n then -1 else if tl.versions.(i) = version then i else index tl version (i + 1)

let pending t ~shard ~version =
  check_shard t shard "pending";
  let tl = t.pending.(shard) in
  let i = index tl version 0 in
  if i < 0 then 0 else tl.counts.(i)

let register tl version count =
  let i = index tl version 0 in
  if i >= 0 then tl.counts.(i) <- tl.counts.(i) + count
  else begin
    if tl.n = Array.length tl.versions then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      tl.versions <- grow tl.versions;
      tl.counts <- grow tl.counts
    end;
    tl.versions.(tl.n) <- version;
    tl.counts.(tl.n) <- count;
    tl.n <- tl.n + 1
  end

let assign t ~entries =
  if Array.length entries <> t.shards then
    invalid_arg "Shard.Rvector.assign: entries length must equal shards";
  let vec = Array.copy t.published in
  for s = 0 to t.shards - 1 do
    let count = entries.(s) in
    if count < 0 then invalid_arg "Shard.Rvector.assign: negative entry count";
    if count > 0 then register t.pending.(s) vec.(s) count
  done;
  t.assigned <- t.assigned + 1;
  vec

let arrived t ~shard ~version =
  check_shard t shard "arrived";
  let tl = t.pending.(shard) in
  let i = index tl version 0 in
  if i < 0 then
    invalid_arg
      (Printf.sprintf
         "Shard.Rvector.arrived: no pending assignment for shard %d \
          version %d"
         shard version)
  else if tl.counts.(i) > 1 then tl.counts.(i) <- tl.counts.(i) - 1
  else begin
    (* The last entry takes the retired one's place. *)
    let last = tl.n - 1 in
    tl.versions.(i) <- tl.versions.(last);
    tl.counts.(i) <- tl.counts.(last);
    tl.n <- last
  end

let assigned t = t.assigned
