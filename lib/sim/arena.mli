(** Packed event records in a freelist arena.

    Both engine schedulers ({!Ocube_sim.Engine}) store their pending
    events here: one slot per event across parallel flat arrays (unboxed
    [floatarray] fire times, int class/payload words, an intrusive
    [next] link), so the hot schedule/fire path allocates nothing once
    the arrays are warm. Generation stamps make cancellation O(1) and
    timer ids immune to slot recycling, and the [live] counter is the
    exact number of pending (scheduled, uncancelled, unfired) events.

    A slot may hold a {e run}: [k] members with payloads [(a, b)],
    [(a, b + 1)], ..., [(a, b + k - 1)] and consecutive sequence numbers,
    which the engine fires one by one ({!Ocube_sim.Engine.extend}). A run
    is one live event however many members it has left. *)

type t

val create : unit -> t

val live : t -> int
(** Exactly the live events: scheduled, not yet fired, not cancelled. *)

val alloc : t -> kind:int -> a:int -> b:int -> (unit -> unit) -> int
(** Claim a slot (growing the arrays if the freelist is empty), stamp it
    with the next sequence number and return it. [kind] must be [>= 0]
    (a dispatch class); closure events pass their thunk, packed events
    pass a shared dummy. The caller must stamp the fire time with
    {!set_time} before handing the slot to a queue — [alloc] takes no
    float argument so the schedule path never boxes one. *)

val extend : t -> int -> unit
(** Append one member to the run in a live slot: it takes the next
    sequence number, as a separately allocated event would have. The
    caller guarantees that no other slot was allocated since. *)

val members : t -> int -> int
(** Members left in a live slot (1 for a plain event). *)

val take_member : t -> int -> unit
(** Drop the head member of a slot with at least two members left: the
    slot's [b] word and sequence number advance to the next member's, so
    its [(time, seq)] key stays its head member's. *)

val id_of : t -> int -> int
(** Generation-stamped timer id for a just-allocated slot. *)

val slot_of_id : int -> int

val cancel : t -> int -> bool
(** O(1): if the id's generation still matches, turn the slot into a
    tombstone (reclaimed when it surfaces in its queue) and return
    [true]. Stale ids — fired, cancelled, recycled — return [false]. *)

val release : t -> int -> unit
(** Return a surfaced slot (just fired, or a surfacing tombstone) to the
    freelist. Bumps the generation of live slots so their id dies. *)

(** {1 Field access} *)

val before : t -> int -> int -> bool
(** [(time, seq)] strict ordering: the scheduler's fire order. *)

val time : t -> int -> float

val set_time : t -> int -> float -> unit
(** Stamp a just-allocated slot's fire time (see {!alloc}). *)

val times : t -> floatarray
(** The backing fire-time array, indexed by slot. Hot paths in the
    schedulers read and write times through this instead of {!time} /
    {!set_time}: a [floatarray] crosses a module boundary as a pointer,
    so the access never boxes a float even when cross-module inlining is
    off (dev-profile [-opaque]). The array is replaced wholesale when
    the arena grows — fetch it again after any {!alloc}, never cache it
    across one. *)

val seq : t -> int -> int

val kind : t -> int -> int
(** The dispatch class ([>= 0]) of a live slot; negative for tombstones
    and free slots. *)

val payload_a : t -> int -> int

val payload_b : t -> int -> int

val thunk : t -> int -> unit -> unit

val is_tombstone : t -> int -> bool

val next : t -> int -> int
(** Intrusive link word of a slot — free for the owning queue to thread
    bucket or freelist chains through ({!no_slot} terminated). *)

val set_next : t -> int -> int -> unit

val dummy_thunk : unit -> unit
(** The shared no-op stored in the thunk slot of packed events. *)

val no_slot : int
(** [-1]: the nil value of slot links and empty heap results. *)

(** {1 Slot heaps}

    Int binary min-heaps over one arena's [(time, seq)] key — the heap
    scheduler's queue, and the wheel's current-tick and far-future
    overflow heaps. *)

module Slot_heap : sig
  type heap

  val create : t -> heap

  val length : heap -> int

  val is_empty : heap -> bool

  val push : heap -> int -> unit

  val peek : heap -> int
  (** [no_slot] when empty. *)

  val pop : heap -> int
  (** [no_slot] when empty. *)
end
