(** The process instantiation of {!Ocube_mutex.Runtime.S}: one node per
    OS process, messages as {!Ctrl.Send} frames through the cluster
    parent, timers as deadlines on the child's select loop.

    Exactly the same protocol functors that run on [Runtime.Sim] run on
    this module ([Opencube_algo.Make (Proc_runtime)] etc.); the child
    hosts the full n-node instance but only node [me]'s handlers ever
    receive a message, so only [me]'s automaton advances — the other
    nodes' automata live in their own processes.

    Time: [now] is wall-clock seconds since creation divided by [tick]
    (seconds per simulated time unit); [delta] is the configured
    message-delay bound in time units, from which the protocols derive
    every timeout. *)

type t

type timer

val create :
  me:int -> n:int -> tick:float -> delta:float -> sock:Unix.file_descr -> t
(** [sock] is the child's end of its socketpair with the parent. *)

(** {1 Runtime.S} *)

val size : t -> int

val delta : t -> float

val now : t -> float

val send : t -> src:int -> dst:int -> Ocube_mutex.Types.Message.t -> unit
(** Writes a {!Ctrl.Send} frame.
    @raise Invalid_argument if [src] is not this process's node. *)

val set_handler :
  t -> int -> (src:int -> Ocube_mutex.Types.Message.t -> unit) -> unit

val set_default_handler :
  t -> (dst:int -> src:int -> Ocube_mutex.Types.Message.t -> unit) -> unit

val set_drop_handler :
  t -> (dst:int -> Ocube_mutex.Types.Message.t -> unit) -> unit

val set_timer : t -> node:int -> delay:float -> (unit -> unit) -> timer
(** @raise Invalid_argument if [node] is not this process's node. *)

val cancel_timer : t -> timer -> unit

val is_failed : t -> int -> bool
(** Always [false]: a killed process runs no code, and its silence is
    the only failure signal the live nodes get (fail-stop). *)

val failed_count : t -> int
(** Always [0], for the same reason. *)

val incarnation : t -> int -> int
(** Always [0]: crash-real faults are permanent, nothing restarts. *)

(** {1 Event-loop plumbing} (for {!Node_main}) *)

val me : t -> int

val next_deadline : t -> float option
(** Earliest pending timer deadline, in time units. *)

val fire_due : t -> unit
(** Run every timer whose deadline has passed, in deadline order. *)

val deliver : t -> src:int -> string -> unit
(** Decode a routed payload and run this node's handler on it.
    @raise Ocube_mutex.Wire.Corrupt on a malformed payload. *)
