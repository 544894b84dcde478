(** Pure executable specification of the fault-free open-cube protocol
    (paper, Section 3).

    A small-step, side-effect-free mirror of {!Ocube_mutex.Opencube_algo}
    (fault tolerance off), written for exhaustive state-space exploration:
    states are immutable values, and every enabled transition — issuing a
    wish, delivering {e any} in-flight message (channels are not FIFO),
    or exiting a critical section — yields a new state.

    {!Explore} drives this spec through every reachable interleaving and
    checks the protocol's invariants on each state; the test suite also
    cross-validates the spec against the discrete-event implementation. *)

type payload =
  | Req of int  (** request(origin) *)
  | Tok of int  (** token(lender); [-1] encodes the paper's [nil] *)

type msg = { src : int; dst : int; payload : payload }

type node = {
  father : int;  (** [-1] = nil (root) *)
  token_here : bool;
  asking : bool;
  in_cs : bool;
  dead : bool;  (** fail-stop crashed (faults mode); all other fields reset *)
  lender : int;
  mandator : int;  (** [-1] = none *)
  queue : int Ocube_sim.Fdeque.t;  (** deferred request origins, FIFO *)
  wishes_left : int;  (** how many more times this node will want the CS *)
}
(** Read-only view of one node, unpacked by {!node}. *)

type state = {
  packed : int array;
      (** one int per node: father, flags, lender, mandator and remaining
          wishes in bit fields — an internal layout; use {!node} to read *)
  queues : int Ocube_sim.Fdeque.t array;  (** deferred request origins *)
  flight : int list;
      (** in-flight messages, one packed int each (see {!flight_msgs});
          kept sorted so equal states compare equal *)
}
(** Treat the fields as opaque: read nodes with {!node} and messages with
    {!flight_msgs}, build modified states with {!set_node}. Successors may
    share arrays with their parent — never mutate them. *)

val initial : p:int -> wishes:int -> state
(** The initial open-cube with the token at node 0 and a budget of
    [wishes] critical-section entries per node. At most 1024 nodes and
    [2{^26} - 1] wishes (the packed-word field widths). *)

val num_nodes : state -> int

val node : state -> int -> node
(** [node st i] unpacks node [i] into the view record. *)

val set_node : state -> int -> node -> state
(** [set_node st i nd] is [st] with node [i] replaced — a pure copy, for
    building test states. Raises [Invalid_argument] if a field does not
    fit the packed layout. *)

val flight_msgs : state -> msg list
(** The in-flight bag unpacked into message records, in sorted order. *)

val int_of_msg : msg -> int
(** Pack a message into its one-int flight representation. Integer order
    on packed messages coincides with the record order used for the
    sorted flight bag. *)

val msg_of_int : int -> msg
(** Inverse of {!int_of_msg}. *)

(** A transition, for diagnostics and counterexample traces. *)
type transition =
  | Wish of int
  | Deliver of msg
  | Exit of int
  | Crash of int  (** fail-stop crash of a node (faults mode) *)

(** Which dynamics to explore. [Faithful] is the paper's protocol;
    [Always_grant] is a seeded bug (a node serves a request while a
    mandate is pending, duplicating the token) used to regression-test
    that the checker — reduced or not — still finds violations. The
    buggy dynamics remain [dist]-equivariant, so symmetry reduction is
    sound for both variants. *)
type variant = Faithful | Always_grant

val transitions :
  ?max_faults:int -> ?variant:variant -> state -> (transition * state) list
(** Every enabled transition with its successor state. The empty list
    means the state is terminal. With [max_faults > 0] (default [0]),
    {!Crash} transitions are enabled while fewer than [max_faults] nodes
    are dead: a quiescent, unreferenced, non-root node fail-stops and its
    orphaned sons atomically reattach to its own father — the spec-level
    abstraction of the paper's Section 5 recovery (see {!crashable}). *)

val iter_successors :
  ?max_faults:int -> ?variant:variant -> state -> (state -> unit) -> int
(** [iter_successors st f] applies [f] to every successor of [st] (same
    states as {!transitions}, without materialising the labelled list)
    and returns how many there were — [0] means terminal. The explorer's
    hot path: successors are handed to [f] the moment they are built. *)

val iter_transitions :
  ?max_faults:int ->
  ?variant:variant ->
  state ->
  wish:(int -> state -> unit) ->
  exit:(int -> state -> unit) ->
  deliver:(int -> state -> unit) ->
  crash:(int -> state -> unit) ->
  int
(** {!iter_successors} with the transition label handed to the callback:
    the explorer's trace-recording path. [deliver] receives the packed
    message int (see {!int_of_msg}); the others receive the node id. *)

val is_dead : state -> int -> bool

val dead_count : state -> int

val crashable : state -> int -> bool
(** Whether a {!Crash} of this node is enabled (given fault budget):
    alive, not root, holding nothing — no token, no CS, not asking,
    empty queue — and unreferenced by any in-flight message, queue
    entry, mandate or loan. Under these preconditions the crash's only
    effect is structural (sons reattach to the grandfather), and no
    reference to a dead node can ever re-form. *)

val relabel : int array -> state -> state
(** [relabel perm st] renames node [i] to [perm.(i)] everywhere — words,
    fathers, lenders, mandators, queue entries, flight end-points — and
    returns a canonical state. [perm] must be a bijection on
    [0 .. num_nodes st - 1]; it preserves the protocol's semantics only
    when it is a [dist]-preserving automorphism ({!Symmetry}'s job).
    Used to de-canonicalize states; canonicalization itself streams keys
    with {!min_relabeled_key} instead. *)

(** The least relabelled key over a permutation group: what symmetry
    reduction canonicalizes by. *)
type min_key = {
  key : string;  (** the minimum of [encode (relabel perms.(k) st)] over [k] *)
  in_flight : int;  (** in-flight message count (relabelling-invariant) *)
  arg : int;  (** the first [k] whose key is the minimum *)
  ties : int;  (** how many [k] reach the minimum *)
}

val min_relabeled_key : int array array -> int array array -> state -> min_key
(** [min_relabeled_key perms invs st], where [invs.(k)] is the inverse of
    [perms.(k)], computes the key of every [relabel perms.(k) st] without
    building the relabelled state: each key is streamed into a scratch
    buffer, compared with the incumbent minimum as it is written (in
    [String.compare] order) and abandoned at its first greater byte; only
    the minimum is copied out. The keys are byte-identical to
    [encode (relabel perms.(k) st)], escape format included. [st] must
    be canonical. Raises [Invalid_argument] if [perms] is empty or any
    permutation's size differs from the node count. *)

val encode_relabeled : int array -> int array -> state -> string
(** [encode_relabeled perm inv st] is the same streaming encoder run to
    completion for one permutation: [encode (relabel perm st)]. *)

val check_invariants : state -> (unit, string) result
(** Safety invariants that must hold in {e every} reachable state:
    at most one node in CS; exactly one token (held or in flight);
    a node in CS holds the token; queues only ever grow on asking nodes. *)

val check_terminal : state -> (unit, string) result
(** What a terminal state must look like: every wish served, nobody
    asking, no message in flight, the father array a valid open-cube, the
    token resting at the root. *)

val canonical : state -> state
(** Normal form: the in-flight bag sorted, every deque rebalanced so that
    equal contents are structurally equal. {!transitions} always returns
    canonical successors. *)

val encode : state -> string
(** Canonical key for visited-set hashing: a compact packed byte string
    (one byte per field at checkable sizes). The argument must be
    canonical; then [encode a = encode b] iff [a = b]. *)

val encode_len : state -> string * int
(** [encode] plus the in-flight message count, read off during the same
    traversal so the explorer never recomputes [List.length flight]. *)

val encode_delta : parent:state -> parent_key:string -> state -> string * int
(** Same result as [encode_len st'], computed faster when [st'] is a
    successor of [parent] (whose key is [parent_key]): the parent's key
    bytes are reused and only changed node words and the flight tail are
    rewritten. Falls back to the generic encoder whenever the shortcut's
    preconditions don't hold, so it is always byte-identical to
    {!encode}. *)


val decode : string -> state
(** Inverse of {!encode}: [decode (encode st) = st] for canonical [st]. *)

val pp : Format.formatter -> state -> unit

val pp_transition : Format.formatter -> transition -> unit
(** One transition label, e.g. [wish 3], [deliver 0->2 req(3)],
    [crash 5]. *)
