(* Entries live in the window [(floor, newest]]: every id at or below
   [floor] has been removed (or never added), and [newest] is the last id
   added. Slot [id land (capacity - 1)] holds the entry under [id] while it
   is live, and [vacant] once removed; every slot outside the window holds
   [vacant] too, so a window that fits the ring never collides. *)
type 'a t = {
  vacant : 'a;
  mutable ring : 'a array;  (* power-of-two length *)
  mutable floor : int;
  mutable newest : int;
}

let initial_capacity = 16

let create ~vacant = { vacant; ring = Array.make initial_capacity vacant; floor = 0; newest = 0 }

let[@inline] slot t id = id land (Array.length t.ring - 1)

(* Double the ring until [(floor, id]] fits, moving the window to its new
   slots. *)
let grow t id =
  let old = t.ring in
  let cap = ref (2 * Array.length old) in
  while id - t.floor > !cap do
    cap := 2 * !cap
  done;
  t.ring <- Array.make !cap t.vacant;
  for i = t.floor + 1 to t.newest do
    t.ring.(slot t i) <- old.(i land (Array.length old - 1))
  done

let add t id x =
  if id <= t.newest then invalid_arg "Id_ring.add: ids must increase";
  if id - t.floor > Array.length t.ring then grow t id;
  t.newest <- id;
  t.ring.(slot t id) <- x

let find t id = if id <= t.floor || id > t.newest then t.vacant else t.ring.(slot t id)

let remove t id =
  if id > t.floor && id <= t.newest then begin
    t.ring.(slot t id) <- t.vacant;
    while t.floor < t.newest && t.ring.(slot t (t.floor + 1)) == t.vacant do
      t.floor <- t.floor + 1
    done
  end

let capacity t = Array.length t.ring
let window t = t.newest - t.floor
