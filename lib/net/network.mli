(** Asynchronous message-passing network with fail-stop nodes.

    Implements the system model of the paper (Sections 1 and 5):

    - point-to-point channels between every pair of nodes;
    - channels are reliable while both ends are up: messages are neither
      lost nor corrupted;
    - communication is asynchronous — per-message delays are sampled from a
      configurable model, so channels need not be FIFO;
    - every delay is bounded by δ ({!delta}), the constant the
      fault-tolerance layer's timeouts are built from;
    - nodes may fail (fail-stop): a failed node performs no action, all
      in-transit messages towards it are lost, and its volatile state and
      pending timers are discarded. Recovery starts a fresh incarnation —
      messages and timers from a previous incarnation never fire.

    The functor is generic in the payload type so that each protocol defines
    its own message variant.

    Delivery is by {e message runs}. A send whose message is the next
    member of the run last scheduled — same source, physically the same
    payload, the next destination id, the same sampled delay, the run
    still the engine's most recent event with nothing fired since, and
    no node failed or recovered since the run began — joins that run
    instead of scheduling an event of its own ({!Ocube_sim.Engine.extend}).
    Each member keeps exactly the engine slot its own event would have
    had, so delivery order, RNG draws, hooks and counters are those of
    one event per message; a fan-out wave of [k] messages costs one
    queue entry. Losses are decided per member, at delivery, from a log
    of fail/recover transitions: a member is lost iff its destination is
    down or has failed or recovered since its run began.

    Per-node state is flat — a byte per node for the failed flag, an int
    for the incarnation, and per-node handlers only once {!set_handler}
    is first called — so building a [2^16]-node network allocates three
    arrays, not one record per node. *)

module type PAYLOAD = sig
  type t

  val pp : Format.formatter -> t -> unit

  val categories : string array
  (** The labels of the per-category message counters ("request",
      "token", "test", ...), each listed once. *)

  val category_index : t -> int
  (** Index into {!categories} of the label a message is counted under.
      {!Make.send} calls it on every message, so it should be a
      constant-time, allocation-free match. *)
end

(** How per-message transit delays are sampled. All models are clamped to
    the bound carried alongside them. *)
type delay_model =
  | Constant of float  (** every message takes exactly this long *)
  | Uniform of { lo : float; hi : float }
      (** uniform in [lo, hi]; allows out-of-order delivery *)
  | Exponential of { mean : float; cap : float }
      (** exponential with the given mean, truncated at [cap] *)

val delay_bound : delay_model -> float
(** The δ of the model: [Constant d → d], [Uniform → hi],
    [Exponential → cap]. *)

module Make (P : PAYLOAD) : sig
  type t

  val create :
    engine:Ocube_sim.Engine.t ->
    rng:Ocube_sim.Rng.t ->
    ?trace:Ocube_sim.Trace.t ->
    n:int ->
    delay:delay_model ->
    unit ->
    t

  val engine : t -> Ocube_sim.Engine.t

  val size : t -> int

  val delta : t -> float
  (** Maximum message delay δ, known to every node (paper, Section 5). *)

  (** {1 Node wiring} *)

  val set_handler : t -> int -> (src:int -> P.t -> unit) -> unit
  (** Install the receive handler of a node. Every node must have a
      handler — per-node or the shared {!set_default_handler} — before
      the first delivery to it. *)

  val set_default_handler : t -> (dst:int -> src:int -> P.t -> unit) -> unit
  (** Install one receive handler shared by every node that has no
      per-node handler. Protocols whose dispatch is uniform in the node
      id use this instead of [2^p] per-node closures — at N≈1M the
      per-node closures alone cost tens of MB. A per-node handler, when
      present, takes precedence. At most one; a second call replaces the
      first. *)

  val set_drop_handler : t -> (dst:int -> P.t -> unit) -> unit
  (** Observe messages lost to failed destinations (protocol layers use
      this for token accounting). At most one global handler. *)

  val set_send_hook : t -> (src:int -> dst:int -> P.t -> unit) -> unit
  (** Passive observer invoked synchronously on every {!send}, before the
      delivery is scheduled (so it also sees messages later lost to a
      failed destination, mirroring {!sent_total}). The observability
      layer attributes messages to request spans through this. The hook
      must not send, fail or otherwise touch the simulation — it is a
      pure tap. At most one; a second call replaces the first. *)

  val clear_send_hook : t -> unit

  (** {1 Communication} *)

  val send : t -> src:int -> dst:int -> P.t -> unit
  (** Sample a delay and schedule delivery, as a new run or as the next
      member of the last one (see the header). Sending from a failed node
      is a programming error ([Invalid_argument]): a fail-stop node takes
      no action. Sending {e to} a failed (or about-to-fail) node silently
      loses the message, as the model prescribes. [src = dst] is allowed
      and goes through the same delay pipeline. To let a broadcast ride
      one run, build its payload once, before the loop. *)

  (** {1 Timers} *)

  type timer

  val set_timer : t -> node:int -> delay:float -> (unit -> unit) -> timer
  (** Schedule a local timeout on a node. The callback is dropped if the
      node has failed (or changed incarnation) by the time it fires. *)

  val cancel_timer : t -> timer -> unit

  (** {1 Failures} *)

  val fail : t -> int -> unit
  (** Fail-stop the node now. Idempotent. *)

  val recover : t -> int -> unit
  (** Bring a failed node back (new incarnation). The protocol layer is
      responsible for re-initialising its volatile state.
      @raise Invalid_argument if the node is not failed. *)

  val is_failed : t -> int -> bool

  val failed_count : t -> int
  (** Number of nodes currently failed; O(1). *)

  val alive_nodes : t -> int list

  val incarnation : t -> int -> int
  (** Starts at 0; +1 on [fail], +1 again on [recover]. *)

  (** {1 Accounting} *)

  val sent_total : t -> int
  (** Messages sent (including ones later lost to failures). *)

  val delivered_total : t -> int

  val dropped_total : t -> int
  (** Messages lost because the destination failed. *)

  val sent_by_category : t -> (string * int) list
  (** Every category with at least one send, ascending by name. *)

  val reset_counters : t -> unit
  (** Zero all counters (used to measure a window of a run, e.g. messages
      attributable to one failure). *)
end
