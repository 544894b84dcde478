(** Discrete-event simulation engine.

    Maintains a virtual clock and a queue of pending events. Events
    scheduled for the same instant fire in scheduling order (a strictly
    increasing sequence number breaks ties), which makes whole-system runs
    deterministic for a given seed.

    Two queue disciplines implement that contract ({!sched}): a hashed
    hierarchical timing wheel (the default — O(1) schedule/fire for the
    bounded-delay events that dominate simulation, an overflow heap for
    the far future) and a binary heap kept as the determinism oracle.
    Both store events as packed records in a freelist arena and fire in
    the identical global [(time, seq)] order, so a seed reproduces the
    same run under either scheduler.

    The engine knows nothing about networks or protocols; higher layers
    ({!Ocube_net.Network}, the mutual-exclusion runner) build on [schedule]
    and [cancel]. The hot paths can avoid closures entirely: register a
    dispatch class once and schedule packed events carrying two int
    payload words ({!register_class}, {!schedule_packed}).

    A packed event can carry a {e run} of members ({!extend}): one queue
    entry that delivers [handler a b], [handler a (b + 1)], ... at one
    instant, each member holding exactly the [(time, seq)] slot it would
    have had as its own event. A fan-out wave then costs one queue
    insert and one pop however wide it is, and fires in the same order,
    step by step, as the separate events would have. *)

type t

type timer_id
(** Handle for a scheduled event, used to cancel it. *)

val no_timer : timer_id
(** An id no event ever has: {!cancel} ignores it and {!extend} refuses
    it. For initialising a mutable handle without an option box. *)

(** {1 Scheduler selection} *)

type sched =
  | Heap  (** Binary heap over the arena: the determinism oracle. *)
  | Wheel  (** Hierarchical timing wheel: the fast default. *)

val set_default_scheduler : sched -> unit
(** Set the discipline used by subsequent {!create} calls that don't pass
    [?sched] explicitly — how the [--scheduler] CLI flag takes effect. *)

val default_scheduler : unit -> sched

val sched_of_string : string -> sched option
(** ["heap"] / ["wheel"]. *)

val sched_to_string : sched -> string

val create : ?sched:sched -> ?tick:float -> unit -> t
(** [sched] defaults to {!default_scheduler}. [tick] (default [0.25]) is
    the wheel's bucket granularity in virtual-time units; it affects
    performance only, never event order. *)

val scheduler : t -> sched

val now : t -> float
(** Current virtual time. Starts at [0.]. *)

val schedule : t -> delay:float -> (unit -> unit) -> timer_id
(** [schedule t ~delay f] fires [f] at time [now t +. delay].
    @raise Invalid_argument if [delay] is negative or not finite. *)

val schedule_at : t -> time:float -> (unit -> unit) -> timer_id
(** Absolute-time variant. [time] must be [>= now t]. *)

(** {1 Closure-free scheduling}

    The dominant event populations (message deliveries, protocol timers)
    are homogeneous: same handler, different small arguments. Registering
    the handler once and scheduling [(class, a, b)] triples keeps the hot
    path allocation-free — no thunk, no captured environment. *)

type class_id

val register_class : t -> (int -> int -> unit) -> class_id
(** Register a packed-event handler; it receives the two payload words of
    each fired event of this class. Registration order is part of the
    deterministic setup, so register classes at construction time. *)

val schedule_packed :
  t -> delay:float -> cls:class_id -> a:int -> b:int -> timer_id
(** Like {!schedule}, but fires [handler a b] for the registered class
    instead of a closure. Same validation and ordering as {!schedule}. *)

val extend : t -> timer_id -> bool
(** [extend t id] appends one member to the packed event [id], turning
    it into (or growing) a run: a run scheduled as [~a ~b] with [k]
    members fires [handler a b], [handler a (b + 1)], ...,
    [handler a (b + k - 1)], in that order, at its one fire time. It
    succeeds, and returns [true], only while [id] is the most recently
    scheduled event, no event has fired since it was scheduled and it
    was not cancelled; then the new member takes the sequence number a
    fresh [schedule_packed] with the same delay would have taken, so the
    fire order is exactly that of separate events. Otherwise it changes
    nothing and returns [false]. Cancelling a run cancels the members it
    has left. *)

(** {1 Running} *)

val cancel : t -> timer_id -> unit
(** Cancel a pending event in O(1). Cancelling an already-fired or
    already-cancelled event is a no-op (generation-stamped ids make stale
    handles harmless). *)

val pending : t -> int
(** Exact number of live pending events: scheduled, not yet fired (or,
    for a run, with members left), not cancelled. A run counts as one
    event however many members it has left. Cancelled events leave the
    count immediately. *)

val step : t -> bool
(** Execute the earliest pending event — for a run, its next member.
    Returns [false] when the queue is empty (and leaves the clock
    untouched). *)

val run : ?until:float -> ?max_steps:int -> t -> unit
(** Run events in order until the queue is empty, the clock would pass
    [until], or [max_steps] events have executed. Events scheduled exactly at
    [until] still fire. Each member of a run is one event: step hooks run
    after every member, and [max_steps] may stop a run part-way; the
    next [step] or [run] continues it. *)

val quiescent : t -> bool
(** [true] when no live (non-cancelled) event remains. *)

val set_step_hook : t -> (unit -> unit) -> unit
(** Install the {e primary} callback invoked after every executed event
    (in both {!step} and {!run}), with the clock already advanced. At most
    one primary hook is installed; a second call replaces the first.
    Runtime invariant oracles hang off this: a hook that raises aborts the
    run at the exact event that broke the invariant. *)

val clear_step_hook : t -> unit

type hook_id

val add_step_hook : t -> (unit -> unit) -> hook_id
(** Register an additional step observer alongside the primary hook (the
    metrics layer samples watermark gauges this way without displacing an
    installed oracle). Hooks fire in registration order, which keeps
    multi-observer runs deterministic. *)

val remove_step_hook : t -> hook_id -> unit
(** Unregister an observer. Removing twice is a no-op. *)
