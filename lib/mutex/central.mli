(** Centralized-coordinator mutual exclusion (trivial baseline).

    Node 0 arbitrates: a requester sends [Request], the coordinator grants
    the token in FIFO order, the holder sends [Release] when done. Exactly 3
    messages per remote request (0 when the coordinator itself requests an
    idle token) — constant but with a hot spot, no locality and a single
    point of failure. Included to anchor the comparison experiments. *)

open Types

(** The protocol core, abstracted over its runtime ({!Runtime.S}). *)
module Make (R : Runtime.S) : sig
  type t

  val create : net:R.t -> callbacks:callbacks -> n:int -> unit -> t

  val request_cs : t -> node_id -> unit

  val release_cs : t -> node_id -> unit

  val instance : t -> instance

  val queue_length : t -> int

  val token_holders : t -> node_id list

  val token_holder_count : t -> int

  val in_cs : t -> node_id -> bool

  val in_cs_count : t -> int

  val invariant_check : t -> (unit, string) result
end

(** {1 Simulator instantiation}

    [Make (Runtime.Sim)], re-exported under the historical interface. *)

type t

val create : net:Net.t -> callbacks:callbacks -> n:int -> unit -> t

val request_cs : t -> node_id -> unit

val release_cs : t -> node_id -> unit

val instance : t -> instance

val queue_length : t -> int
(** Pending requests at the coordinator. *)

val token_holders : t -> node_id list
(** The node in its CS ([[]] while the grant or release is in flight). *)

val token_holder_count : t -> int
(** [List.length (token_holders t)]: O(1). *)

val in_cs : t -> node_id -> bool

val in_cs_count : t -> int
(** Nodes in their critical section, kept as a counter: O(1). *)

val invariant_check : t -> (unit, string) result
