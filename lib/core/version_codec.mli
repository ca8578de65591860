(** Version-number reuse — the paper's §4 remark made concrete.

    "We assume for simplicity that version numbers increase monotonically
    with time. A real implementation could re-use old version numbers,
    employing only three distinct numbers."

    This module is that real implementation's codec. A version travels as
    its residue mod 3 and is decoded relative to an {e anchor} the receiver
    already holds: its current update version [vu] for update-path messages
    (subtransactions, update-phase counter queries) and its current read
    version [vr] for read-path messages (read subtransactions, read-phase
    queries, GC notices). The protocol guarantees every such message's
    version is within distance 1 of its anchor at arrival — a straggler
    update can lag the receiver's [vu] by one, an advancement notice can
    lead it by one, and never more, because phase 2 cannot finish while any
    older-version subtransaction is live or in flight. Within distance 1
    the three residues are distinct, so decoding is unambiguous.

    The engine keeps logical (unbounded) version ints internally for
    clarity; the test suite pairs this codec with a live engine check that
    every message satisfies the distance-1 precondition, proving the 2-bit
    wire encoding would be sound. *)

(** Number of distinct wire codes needed. *)
val codes : int

(** [encode v] is the wire representation, in [0 .. codes-1].
    @raise Invalid_argument on negative versions. *)
val encode : int -> int

(** [decode ~near code] recovers the unique version [v] with
    [encode v = code] and [|v - near| <= 1].
    @raise Invalid_argument if [code] is out of range or no nonnegative
    candidate within distance 1 exists (a protocol-invariant violation). *)
val decode : near:int -> int -> int
