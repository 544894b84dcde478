(** Hashed hierarchical timing wheel over arena slots.

    The fast queue discipline behind {!Ocube_sim.Engine}: three levels of
    256 intrusive buckets give O(1) insert and amortised-O(1) pop for the
    bounded-delay events that dominate simulation, with a far-future
    overflow heap. The tick being drained is a run sorted by the exact
    [(time, seq)] key (O(1) per event for a constant-delay wave) plus a
    near-heap for events scheduled into it after it started — so the fire
    order is bit-identical to the binary heap scheduler. Tombstoned
    (cancelled) slots are reclaimed lazily as they surface. *)

type t

val create : arena:Arena.t -> tick:float -> t
(** [tick] is the bucket granularity in virtual-time units; events within
    the same tick are ordered exactly by their [(time, seq)] key, so
    [tick] affects performance only.
    @raise Invalid_argument if [tick] is not positive and finite. *)

val insert : t -> int -> unit
(** Queue an allocated arena slot by its fire time. Also used to re-queue
    a popped slot when a [run ~until] horizon pushes it back. *)

val pop : t -> int
(** Remove and return the earliest live slot ({!Arena.no_slot} when the
    wheel is empty), releasing any tombstones that surface on the way.
    The caller fires and releases the returned slot. *)
