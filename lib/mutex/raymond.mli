(** Raymond's tree-based mutual exclusion algorithm (TOCS 1989).

    The static-tree baseline the paper compares against: nodes sit on a
    fixed undirected spanning tree; each node keeps a [holder] pointer
    towards the token, a FIFO of neighbours wanting the token, and an
    [asked] flag that coalesces requests. The worst-case message complexity
    per request is O(diameter), but the structure is static: work done by a
    node depends on its tree degree, not on how often it enters its critical
    section — the first disadvantage the paper's introduction attributes to
    the static approach. No fault tolerance. *)

open Types

(** The protocol core, abstracted over its runtime ({!Runtime.S}). *)
module Make (R : Runtime.S) : sig
  type t

  val create :
    net:R.t -> callbacks:callbacks -> tree:node_id option array -> unit -> t

  val request_cs : t -> node_id -> unit

  val release_cs : t -> node_id -> unit

  val instance : t -> instance

  val holder : t -> node_id -> node_id

  val token_holders : t -> node_id list

  val token_holder_count : t -> int

  val tokens_in_flight : t -> int

  val in_cs : t -> node_id -> bool

  val in_cs_count : t -> int

  val queue_length : t -> node_id -> int

  val invariant_check : t -> (unit, string) result
end

(** {1 Simulator instantiation}

    [Make (Runtime.Sim)], re-exported under the historical interface. *)

type t

val create :
  net:Net.t -> callbacks:callbacks -> tree:node_id option array -> unit -> t
(** [tree] is a father array (see {!Ocube_topology.Static_tree}); the
    undirected tree it induces is Raymond's structure. The token starts at
    the tree root (the fatherless node).
    @raise Invalid_argument if the array size differs from the network's or
    the array is not a tree. *)

val request_cs : t -> node_id -> unit

val release_cs : t -> node_id -> unit

val instance : t -> instance

(** {1 Introspection} *)

val holder : t -> node_id -> node_id
(** Current holder pointer ([i] itself when the node believes it has the
    token side of the tree). *)

val token_holders : t -> node_id list
(** Nodes with [holder = self], by a scan over every node. *)

val token_holder_count : t -> int
(** [List.length (token_holders t)], kept as a counter: O(1). *)

val tokens_in_flight : t -> int
(** Tokens sent and not yet delivered (or dropped). *)

val in_cs : t -> node_id -> bool

val in_cs_count : t -> int
(** Nodes in their critical section, kept as a counter: O(1). *)

val queue_length : t -> node_id -> int

val invariant_check : t -> (unit, string) result
(** O(1): at most one node in the CS, at most one self-holder, exactly
    one while no token is in flight. *)
