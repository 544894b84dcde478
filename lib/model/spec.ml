module Opencube = Ocube_topology.Opencube
module Fdeque = Ocube_sim.Fdeque

type payload = Req of int | Tok of int

type msg = { src : int; dst : int; payload : payload }

type node = {
  father : int;
  token_here : bool;
  asking : bool;
  in_cs : bool;
  dead : bool;
  lender : int;
  mandator : int;
  queue : int Fdeque.t;
  wishes_left : int;
}

(* --- packed node words -------------------------------------------------- *)

(* Every scalar field of a node lives in one immutable int, so a state is
   two small arrays plus the flight list: successor construction copies a
   couple of flat int/pointer arrays instead of a record per touched
   node, and the byte encoding below is mask-and-shift straight off the
   word.

   Layout (63-bit int):
     bits  0-10  father + 1        (0 = nil; node ids < 1024)
     bit     11  token_here
     bit     12  asking
     bit     13  in_cs
     bits 14-24  lender
     bits 25-35  mandator + 1      (0 = none)
     bits 36-61  wishes_left       (< 2^26, checked in [initial])
     bit     62  dead              (fail-stop crash, faults mode only)
   Bit 62 is the native-int sign bit, so a dead word is negative — every
   access below is bitwise (and [lsr], not [asr]), which is well-defined
   on the full 63-bit pattern.
   Queues are the only non-scalar per-node component and stay in their
   own copy-on-write array. *)

let bit_token = 0x800
let bit_asking = 0x1000
let bit_in_cs = 0x2000
let bit_dead = 1 lsl 62
let max_nodes = 1024
let max_wishes = (1 lsl 26) - 1

let[@inline] nfather w = (w land 0x7ff) - 1
let[@inline] ntoken w = w land bit_token <> 0
let[@inline] nasking w = w land bit_asking <> 0
let[@inline] nincs w = w land bit_in_cs <> 0
let[@inline] ndead w = w land bit_dead <> 0
let[@inline] nlender w = (w lsr 14) land 0x7ff
let[@inline] nmandator w = ((w lsr 25) land 0x7ff) - 1
let[@inline] nwishes w = (w lsr 36) land max_wishes

(* token/asking/in_cs/dead as one nibble, the byte the codecs write. *)
let[@inline] flags_nibble w = ((w lsr 11) land 0x7) lor ((w lsr 59) land 0x8)

let[@inline] with_father w f = w land lnot 0x7ff lor (f + 1)
let[@inline] with_lender w l = w land lnot (0x7ff lsl 14) lor (l lsl 14)
let[@inline] with_mandator w m = w land lnot (0x7ff lsl 25) lor ((m + 1) lsl 25)
let[@inline] with_wishes w k = w land lnot (max_wishes lsl 36) lor (k lsl 36)

let make_word ~father ~token_here ~asking ~in_cs ~lender ~mandator ~wishes_left
    =
  father + 1
  lor (if token_here then bit_token else 0)
  lor (if asking then bit_asking else 0)
  lor (if in_cs then bit_in_cs else 0)
  lor (lender lsl 14)
  lor ((mandator + 1) lsl 25)
  lor (wishes_left lsl 36)

(* The one legal word for a crashed node: no father, no flags, no wishes,
   lender at rest (self). Anything else on a dead node is an invariant
   violation. *)
let dead_word i =
  bit_dead
  lor make_word ~father:(-1) ~token_here:false ~asking:false ~in_cs:false
        ~lender:i ~mandator:(-1) ~wishes_left:0

(* --- packed messages ---------------------------------------------------- *)

(* An in-flight message is one immediate int, laid out so that plain
   integer comparison sorts exactly like the record view compared
   field-by-field with [Req _ < Tok _]:

     bits 22-31  src
     bits 12-21  dst
     bit     11  0 = request, 1 = token
     bits  0-10  request origin, or token lender + 1

   The flight bag is then an [int list] — no per-message allocation
   beyond the cons cell, and sorting/equality are unboxed compares. *)

let[@inline] mk_req ~src ~dst j = (src lsl 22) lor (dst lsl 12) lor j

let[@inline] mk_tok ~src ~dst l =
  (src lsl 22) lor (dst lsl 12) lor bit_token lor (l + 1)

let[@inline] msrc m = m lsr 22
let[@inline] mdst m = (m lsr 12) land 0x3ff
let[@inline] mis_tok m = m land bit_token <> 0
let[@inline] mval m = m land 0x7ff

let msg_of_int m =
  {
    src = msrc m;
    dst = mdst m;
    payload = (if mis_tok m then Tok (mval m - 1) else Req (mval m));
  }

let int_of_msg { src; dst; payload } =
  match payload with
  | Req j -> mk_req ~src ~dst j
  | Tok l -> mk_tok ~src ~dst l

type state = {
  packed : int array;
  queues : int Fdeque.t array;
  flight : int list;
}

let num_nodes st = Array.length st.packed

let node st i =
  let w = st.packed.(i) in
  {
    father = nfather w;
    token_here = ntoken w;
    asking = nasking w;
    in_cs = nincs w;
    dead = ndead w;
    lender = nlender w;
    mandator = nmandator w;
    queue = st.queues.(i);
    wishes_left = nwishes w;
  }

let is_dead st i = ndead st.packed.(i)

let dead_count st =
  Array.fold_left (fun k w -> if ndead w then k + 1 else k) 0 st.packed

let word_of_node nd =
  if
    nd.father < -1
    || nd.father >= max_nodes - 1
    || nd.lender < 0
    || nd.lender >= max_nodes
    || nd.mandator < -1
    || nd.mandator >= max_nodes - 1
    || nd.wishes_left < 0
    || nd.wishes_left > max_wishes
  then invalid_arg "Spec: node field out of packable range";
  make_word ~father:nd.father ~token_here:nd.token_here ~asking:nd.asking
    ~in_cs:nd.in_cs ~lender:nd.lender ~mandator:nd.mandator
    ~wishes_left:nd.wishes_left
  lor (if nd.dead then bit_dead else 0)

let set_node st i nd =
  let packed = Array.copy st.packed in
  let queues = Array.copy st.queues in
  packed.(i) <- word_of_node nd;
  queues.(i) <- nd.queue;
  { st with packed; queues }

let flight_msgs st = List.map msg_of_int st.flight

let log2 n =
  let rec go acc m = if m = 1 then acc else go (acc + 1) (m lsr 1) in
  go 0 n

let initial ~p ~wishes =
  let n = 1 lsl p in
  if n > max_nodes then invalid_arg "Spec.initial: at most 1024 nodes";
  if wishes < 0 || wishes > max_wishes then
    invalid_arg "Spec.initial: wishes out of range";
  {
    packed =
      Array.init n (fun i ->
          make_word
            ~father:(if i = 0 then -1 else i land (i - 1))
            ~token_here:(i = 0) ~asking:false ~in_cs:false ~lender:i
            ~mandator:(-1) ~wishes_left:wishes);
    queues = Array.make n Fdeque.empty;
    flight = [];
  }

type transition = Wish of int | Deliver of msg | Exit of int | Crash of int

(* Seeded-bug variants for the checker's own regression harness (the
   model-level twin of the DES fuzzer's always-grant build): the buggy
   dynamics still depend only on [dist] and per-node state, so symmetry
   reduction remains sound for them — which is exactly what the
   symmetry-vs-unreduced parity suite relies on. *)
type variant = Faithful | Always_grant

(* --- pure mirror of the fault-free handlers --------------------------- *)

let power st i =
  let f = nfather st.packed.(i) in
  if f < 0 then log2 (Array.length st.packed) else Opencube.dist i f - 1

(* Successor construction copies the node-word array {e once} on entry
   and the queues array only when the transition can touch a deque (most
   cannot — see the [succ_*] builders); the handlers below then write
   through that private copy ([set_word] / the queues array). A
   transition chains several node updates (a delivery that triggers a
   drain rewrites the same node repeatedly), so threading fresh copies
   through every update — the obvious functional style — made
   [transitions] the model checker's dominant allocator. Observable
   behaviour is unchanged: handlers thread the state value and never
   write to an array shared with the input state. *)
let set_word st i w =
  st.packed.(i) <- w;
  st

(* The flight bag is kept sorted at all times: [initial] starts empty,
   delivery removes while preserving order, and [send] inserts in place —
   so successors never need sorting, and equal bags are structurally
   equal. *)
let rec insert_sorted (m : int) = function
  | [] -> [ m ]
  | m' :: rest as l -> if m <= m' then m :: l else m' :: insert_sorted m rest

let send st m = { st with flight = insert_sorted m st.flight }

(* process one request(j) at node i; the caller guarantees not asking. *)
let rec process_request st i j =
  let w = st.packed.(i) in
  if (not (ntoken w)) && nfather w < 0 then begin
    (* a tokenless, non-asking root is protocol-incoherent — unreachable
       under [Faithful], but seeded-bug variants can manufacture it.
       Defer the request instead of forwarding to the nonexistent father
       so the spec stays total and the checker reports the real
       invariant violation rather than crashing on a garbage message. *)
    st.queues.(i) <- Fdeque.push_back st.queues.(i) j;
    st
  end
  else
  let pw = power st i in
  let dj = Opencube.dist i j in
  if dj = pw then
    (* transit *)
    if ntoken w then
      send
        (set_word st i (with_father (w land lnot bit_token) j))
        (mk_tok ~src:i ~dst:j (-1))
    else
      send (set_word st i (with_father w j)) (mk_req ~src:i ~dst:(nfather w) j)
  else begin
    (* proxy *)
    let w' = w lor bit_asking in
    if ntoken w then
      send (set_word st i (w' land lnot bit_token)) (mk_tok ~src:i ~dst:j i)
    else
      send
        (set_word st i (with_mandator w' j))
        (mk_req ~src:i ~dst:(nfather w) i)
  end

(* drain the deferred queue of node i while it is idle. Bounded by the
   queue length on entry: a faithful drain never re-queues at i, so the
   bound is exact there, and it stops the pop/re-defer cycle that the
   incoherent-root guard in [process_request] would otherwise cause. *)
and drain st i =
  let rec go st budget =
    if budget = 0 || nasking st.packed.(i) then st
    else
      match Fdeque.pop_front st.queues.(i) with
      | None -> st
      | Some (j, rest) ->
        st.queues.(i) <- rest;
        let st = process_request st i j in
        go st (budget - 1)
  in
  go st (Fdeque.length st.queues.(i))

let deliver ~variant st m =
  let src = msrc m in
  let i = mdst m in
  if not (mis_tok m) then begin
    let j = mval m in
    let w = st.packed.(i) in
    if nasking w then begin
      match variant with
      | Always_grant ->
        (* injected bug: serve the request immediately even though a
           mandate/loan is pending — clobbers the mandate and duplicates
           the token. The checker must catch this. *)
        drain (process_request st i j) i
      | Faithful ->
        (* re-canonicalise the deque right here (it is tiny), so successor
           canonicalisation never has to rebuild anything *)
        st.queues.(i) <- Fdeque.canonical (Fdeque.push_back st.queues.(i) j);
        st
    end
    else drain (process_request st i j) i
  end
  else begin
    let l = mval m - 1 in
    let w = st.packed.(i) in
    let mand = nmandator w in
    if mand = i then
      (* our own wish is granted *)
      let w' = w lor bit_token lor bit_in_cs in
      let w' =
        if l < 0 then with_mandator (with_father (with_lender w' i) (-1)) (-1)
        else with_mandator (with_father (with_lender w' l) src) (-1)
      in
      set_word st i w'
    else if mand >= 0 then
      (* proxy: honour the mandate *)
      if l < 0 then
        (* become root and lend; asking remains true until the return *)
        send
          (set_word st i
             (with_mandator (with_father (with_lender w i) (-1)) (-1)))
          (mk_tok ~src:i ~dst:mand i)
      else
        let st =
          send
            (set_word st i
               (with_mandator (with_father w src) (-1) land lnot bit_asking))
            (mk_tok ~src:i ~dst:mand l)
        in
        drain st i
    else
      (* return after a loan: we rest as the root holder *)
      let st =
        set_word st i
          (with_father (with_lender w i) (-1)
          land lnot bit_asking
          lor bit_token)
      in
      drain st i
  end

let wish st i =
  let w = st.packed.(i) in
  let w' = with_wishes (w lor bit_asking) (nwishes w - 1) in
  if ntoken w then set_word st i (with_lender w' i lor bit_in_cs)
  else
    send (set_word st i (with_mandator w' i)) (mk_req ~src:i ~dst:(nfather w) i)

let exit_cs st i =
  let w = st.packed.(i) in
  let w' = w land lnot (bit_in_cs lor bit_asking) in
  let st =
    if nlender w <> i then
      send
        (set_word st i (w' land lnot bit_token))
        (mk_tok ~src:i ~dst:(nlender w) (-1))
    else set_word st i w'
  in
  drain st i

(* --- transition enumeration ------------------------------------------- *)

(* States are deduplicated by their packed byte image, so every component
   must be in a normal form. The handlers keep the flight bag sorted and
   every deque canonical by construction; the dirty scan below is a
   cheap safety net. *)
let canonical_nodes st =
  let q = st.queues in
  let n = Array.length q in
  let rec dirty i =
    i < n && ((not (Fdeque.is_canonical q.(i))) || dirty (i + 1))
  in
  if not (dirty 0) then st
  else
    {
      st with
      queues =
        Array.map
          (fun qq -> if Fdeque.is_canonical qq then qq else Fdeque.canonical qq)
          q;
    }

let canonical st =
  let st = canonical_nodes st in
  { st with flight = List.sort Int.compare st.flight }

(* Successor builders. Each one decides whether the transition can write
   a deque; if it provably cannot, the successor shares the parent's
   queues array (a state's arrays are never written after construction,
   so sharing is safe and saves the copy on the majority of transitions
   that never look at a queue).

   - [wish] only rewrites node words and sends;
   - [exit_cs i] drains node [i]'s deque, a no-op when it is empty;
   - a delivery to [i] can push onto [i]'s deque (request while asking)
     or drain it — both need [i]'s deque non-empty or [i] asking. *)

let succ_wish st i =
  canonical_nodes (wish { st with packed = Array.copy st.packed } i)

let succ_exit st i =
  let st' =
    if Fdeque.is_empty st.queues.(i) then
      { st with packed = Array.copy st.packed }
    else
      { st with packed = Array.copy st.packed; queues = Array.copy st.queues }
  in
  canonical_nodes (exit_cs st' i)

let succ_deliver ~variant st m flight' =
  let i = mdst m in
  let touches_queue =
    ((not (mis_tok m)) && nasking st.packed.(i))
    || not (Fdeque.is_empty st.queues.(i))
  in
  let st' =
    if touches_queue then
      {
        packed = Array.copy st.packed;
        queues = Array.copy st.queues;
        flight = flight';
      }
    else { st with packed = Array.copy st.packed; flight = flight' }
  in
  canonical_nodes (deliver ~variant st' m)

(* --- fail-stop crash faults --------------------------------------------- *)

(* The spec-level abstraction of the paper's Section 5 machinery: the
   crash of node [i] and the ensuing recovery (father reconnection of
   [i]'s orphaned sons) happen {e atomically}. The paper argues recovery
   completes within a bounded delay and re-forms a legal structure; here
   every orphan adopts the crashed node's own father (the path through
   [i] contracts), which is the quiescent outcome of [search_father].

   A node is crashable only while it is a quiescent bystander — not
   holding or borrowing the token, not asking, not referenced by any
   in-flight message, queue entry, mandate or loan. Structural damage
   (sons losing their father) is the one effect that remains, which is
   precisely the re-formation scenario the fault-tolerance argument is
   about. Under these preconditions no reference to a dead node can ever
   re-form: dead nodes never act, nothing points at them, and every
   father/mandator/lender written afterwards names a live node. *)

let crashable st i =
  let w = st.packed.(i) in
  (not (ndead w))
  && (not (ntoken w))
  && (not (nasking w))
  && (not (nincs w))
  && nfather w >= 0
  && Fdeque.is_empty st.queues.(i)
  && (not
        (List.exists
           (fun m ->
             msrc m = i || mdst m = i
             ||
             if mis_tok m then mval m - 1 = i else mval m = i)
           st.flight))
  &&
  let n = Array.length st.packed in
  let rec clear j =
    j >= n
    || ((j = i
        ||
        let wj = st.packed.(j) in
        ndead wj
        || (nmandator wj <> i && nlender wj <> i
           && not (Fdeque.exists (fun x -> x = i) st.queues.(j))))
       && clear (j + 1))
  in
  clear 0

let succ_crash st i =
  let packed = Array.copy st.packed in
  let n = Array.length packed in
  let fi = nfather packed.(i) in
  for j = 0 to n - 1 do
    let w = Array.unsafe_get packed j in
    if (not (ndead w)) && nfather w = i then
      Array.unsafe_set packed j (with_father w fi)
  done;
  packed.(i) <- dead_word i;
  (* queues and flight untouched: [i]'s queue is empty and no message
     references it, so sharing the parent's arrays keeps the
     [encode_delta] fast path valid. *)
  { st with packed }

(* One enumeration core drives both the labelled [transitions] list (used
   by tests and diagnostics) and the label-free {!iter_successors} hot
   path of the explorer. Identical in-flight messages lead to identical
   successors, so a message is delivered only at its first occurrence —
   the flight bag is a handful of ints, so a prefix scan beats allocating
   a dedup table, and [rev_append prefix rest] (which preserves
   sortedness) replaces a remove-first walk. *)
let iter_core ?(max_faults = 0) ?(variant = Faithful) st fwish fexit fdeliver
    fcrash =
  let count = ref 0 in
  let n = Array.length st.packed in
  for i = 0 to n - 1 do
    let w = Array.unsafe_get st.packed i in
    if nincs w then begin
      incr count;
      fexit i (succ_exit st i)
    end;
    if nwishes w > 0 && (not (nasking w)) && not (nincs w) then begin
      incr count;
      fwish i (succ_wish st i)
    end
  done;
  let rec go prefix = function
    | [] -> ()
    | m :: rest ->
      if not (List.memq m prefix) then begin
        incr count;
        fdeliver m (succ_deliver ~variant st m (List.rev_append prefix rest))
      end;
      go (m :: prefix) rest
  in
  go [] st.flight;
  if max_faults > 0 && dead_count st < max_faults then
    for i = 0 to n - 1 do
      if crashable st i then begin
        incr count;
        fcrash i (succ_crash st i)
      end
    done;
  !count

let transitions ?max_faults ?variant st =
  let acc = ref [] in
  let (_ : int) =
    iter_core ?max_faults ?variant st
      (fun i st' -> acc := (Wish i, st') :: !acc)
      (fun i st' -> acc := (Exit i, st') :: !acc)
      (fun m st' -> acc := (Deliver (msg_of_int m), st') :: !acc)
      (fun i st' -> acc := (Crash i, st') :: !acc)
  in
  !acc

let iter_successors ?max_faults ?variant st f =
  let g _ st' = f st' in
  iter_core ?max_faults ?variant st g g g g

let iter_transitions ?max_faults ?variant st ~wish ~exit ~deliver ~crash =
  iter_core ?max_faults ?variant st wish exit deliver crash

(* --- invariants -------------------------------------------------------- *)

(* Checked on every explored state: the happy path must not allocate, so
   errors are built lazily and the token census is a plain fold. *)
let check_invariants st =
  let in_cs = ref 0 and held = ref 0 in
  let error = ref None in
  let set_err f = error := Some f in
  let n = Array.length st.packed in
  for i = 0 to n - 1 do
    let w = Array.unsafe_get st.packed i in
    if ndead w then begin
      if w <> dead_word i then
        set_err (fun () -> Printf.sprintf "dead node %d has live state" i);
      if not (Fdeque.is_empty st.queues.(i)) then
        set_err (fun () -> Printf.sprintf "dead node %d has a queue" i)
    end
    else begin
      if nincs w then begin
        incr in_cs;
        if not (ntoken w) then
          set_err (fun () -> Printf.sprintf "node %d in CS without the token" i)
      end;
      if ntoken w then incr held;
      if (not (nasking w)) && not (Fdeque.is_empty st.queues.(i)) then
        set_err (fun () ->
            Printf.sprintf "idle node %d has a non-empty queue" i);
      let f = nfather w in
      if f >= 0 && ndead (Array.unsafe_get st.packed f) then
        set_err (fun () ->
            Printf.sprintf "live node %d's father %d is dead" i f)
    end
  done;
  let in_flight =
    List.fold_left (fun k m -> if mis_tok m then k + 1 else k) 0 st.flight
  in
  List.iter
    (fun m ->
      let dead j = j >= 0 && j < n && ndead st.packed.(j) in
      let v = if mis_tok m then mval m - 1 else mval m in
      let out_of_range j = j < 0 || j >= n in
      if out_of_range (msrc m) || out_of_range (mdst m) || v >= n
         || v < if mis_tok m then -1 else 0
      then
        set_err (fun () ->
            Printf.sprintf "message %d -> %d has an out-of-range node id"
              (msrc m) (mdst m))
      else if dead (msrc m) || dead (mdst m) || dead v then
        set_err (fun () ->
            Printf.sprintf "message %d -> %d references a dead node" (msrc m)
              (mdst m)))
    st.flight;
  if !in_cs > 1 then set_err (fun () -> "two nodes in CS");
  if !held + in_flight <> 1 then begin
    let held = !held in
    set_err (fun () ->
        Printf.sprintf "token count %d (held %d, flying %d)" (held + in_flight)
          held in_flight)
  end;
  match !error with None -> Ok () | Some f -> Error (f ())

let check_terminal st =
  let errors = ref [] in
  let n = Array.length st.packed in
  for i = 0 to n - 1 do
    let w = st.packed.(i) in
    if not (ndead w) then begin
      if nwishes w > 0 then
        errors :=
          Printf.sprintf "node %d still has wishes (deadlock)" i :: !errors;
      if nasking w then
        errors := Printf.sprintf "node %d still asking (deadlock)" i :: !errors;
      if nincs w then
        errors := Printf.sprintf "node %d stuck in CS" i :: !errors
    end
  done;
  if st.flight <> [] then errors := "messages still in flight" :: !errors;
  (if dead_count st = 0 then begin
     let fathers =
       Array.map
         (fun w -> if nfather w < 0 then None else Some (nfather w))
         st.packed
     in
     match Opencube.check (Opencube.of_fathers fathers) with
     | Ok () -> ()
     | Error m -> errors := ("not an open-cube: " ^ m) :: !errors
   end
   else begin
     (* Crash faults excise nodes, so the survivors cannot form a full
        2^p open cube; what Section 5's recovery guarantees — and what we
        check — is that they re-form a rooted tree: exactly one live
        root, every live father live (enforced by [check_invariants]),
        and every live branch reaching the root acyclically. *)
     let roots = ref 0 in
     for i = 0 to n - 1 do
       let w = st.packed.(i) in
       if (not (ndead w)) && nfather w < 0 then incr roots
     done;
     if !roots <> 1 then
       errors :=
         Printf.sprintf "%d live roots after faults (want 1)" !roots :: !errors;
     for i = 0 to n - 1 do
       let w = st.packed.(i) in
       if not (ndead w) then begin
         let rec climb j steps =
           if steps > n then
             errors :=
               Printf.sprintf "father cycle through node %d after faults" i
               :: !errors
           else
             let f = nfather st.packed.(j) in
             if f >= 0 then climb f (steps + 1)
         in
         climb i 0
       end
     done
   end);
  for i = 0 to n - 1 do
    let w = st.packed.(i) in
    if ntoken w && nfather w >= 0 then
      errors := Printf.sprintf "holder %d is not the root" i :: !errors;
    if ntoken w && nlender w <> i then
      errors :=
        Printf.sprintf "holder %d owes the token to %d" i (nlender w) :: !errors
  done;
  match !errors with [] -> Ok () | e :: _ -> Error e

(* --- packed encoding ---------------------------------------------------- *)

(* Visited-set keys used to be [Marshal.to_string st [No_sharing]]: correct
   but slow (generic traversal, ~200 bytes per 4-node state) and the single
   hottest line of the model checker. The packed encoding below writes each
   field as one byte in the common case, so a 4-node state fits in ~40
   bytes, and hashing/equality on the key shrink proportionally.

   Integer wire format: a value in [0, 253] is a single byte; larger values
   are the escape byte 254 followed by 8 little-endian bytes. Every field
   is non-negative after the +1 shifts ([-1] encodes nil for fathers,
   mandators and token lenders), and the shortest form is mandatory, so the
   encoding is injective: two canonical states collide iff they are equal.

   The caller must pass a canonical state (sorted flight, canonical
   deques) — the same contract the Marshal key had. *)

(* Per-domain scratch buffer: encoding is a single closure-free pass into
   the scratch, then one [Bytes.sub_string] for the final key. *)
let scratch_key = Domain.DLS.new_key (fun () -> ref (Bytes.create 1024))

let ensure r pos need =
  let b = !r in
  if Bytes.length b - pos < need then begin
    let nb = Bytes.create (2 * (Bytes.length b + need)) in
    Bytes.blit b 0 nb 0 pos;
    r := nb;
    nb
  end
  else b

(* Top-level writers threading the position, so the encoder closes over
   nothing and allocates nothing. The single-byte fast path is forced
   inline; the escape form stays out of line. *)
let put_int_escape b pos v =
  Bytes.unsafe_set b pos '\254';
  for k = 0 to 7 do
    Bytes.unsafe_set b (pos + 1 + k)
      (Char.unsafe_chr ((v lsr (8 * k)) land 0xff))
  done;
  pos + 9

let[@inline] put_int b pos v =
  if v < 254 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr v);
    pos + 1
  end
  else put_int_escape b pos v

let put_node r pos w q =
  let ql = Fdeque.length q in
  let b = ensure r pos (46 + (9 * ql)) in
  let pos = put_int b pos (nfather w + 1) in
  Bytes.unsafe_set b pos (Char.unsafe_chr (flags_nibble w));
  let pos = put_int b (pos + 1) (nlender w) in
  let pos = put_int b pos (nmandator w + 1) in
  let pos = put_int b pos (nwishes w) in
  let pos = put_int b pos ql in
  Fdeque.fold (fun pos j -> put_int b pos j) pos q

let rec put_flight r pos = function
  | [] -> pos
  | m :: rest ->
    let b = ensure r pos 28 in
    let pos = put_int b pos (msrc m) in
    let pos = put_int b pos (mdst m) in
    Bytes.unsafe_set b pos (if mis_tok m then '\001' else '\000');
    let pos = put_int b (pos + 1) (mval m) in
    put_flight r pos rest

let encode_generic st r n flight_len =
  let pos = put_int (ensure r 0 18) 0 n in
  let pos = ref pos in
  for i = 0 to n - 1 do
    pos :=
      put_node r !pos
        (Array.unsafe_get st.packed i)
        (Array.unsafe_get st.queues i)
  done;
  let pos =
    put_flight r (put_int (ensure r !pos 9) !pos flight_len) st.flight
  in
  (Bytes.sub_string !r 0 pos, flight_len)

(* At model-checkable sizes every field is a single byte (node ids are
   below [n], and [n < 254]), so when one guard pass confirms that no
   field needs the escape form the state is written with straight
   unchecked byte stores. The guard also accumulates a size bound, so
   the fast path does a single capacity check. *)
let rec small_nodes st n i size =
  if i = n then size
  else
    let w = Array.unsafe_get st.packed i in
    let ql = Fdeque.length (Array.unsafe_get st.queues i) in
    if nwishes w < 254 && ql < 254 then small_nodes st n (i + 1) (size + 6 + ql)
    else -1

let encode_len st =
  let n = Array.length st.packed in
  let flight_len = List.length st.flight in
  let r = Domain.DLS.get scratch_key in
  let size = if n < 254 && flight_len < 254 then small_nodes st n 0 2 else -1 in
  if size < 0 then encode_generic st r n flight_len
  else begin
    let size = size + (4 * flight_len) in
    let b = ensure r 0 size in
    Bytes.unsafe_set b 0 (Char.unsafe_chr n);
    let pos = ref 1 in
    for i = 0 to n - 1 do
      let w = Array.unsafe_get st.packed i in
      let p = !pos in
      Bytes.unsafe_set b p (Char.unsafe_chr (nfather w + 1));
      Bytes.unsafe_set b (p + 1) (Char.unsafe_chr (flags_nibble w));
      Bytes.unsafe_set b (p + 2) (Char.unsafe_chr (nlender w));
      Bytes.unsafe_set b (p + 3) (Char.unsafe_chr (nmandator w + 1));
      Bytes.unsafe_set b (p + 4) (Char.unsafe_chr (nwishes w));
      let q = Array.unsafe_get st.queues i in
      let ql = Fdeque.length q in
      Bytes.unsafe_set b (p + 5) (Char.unsafe_chr ql);
      if ql = 0 then pos := p + 6
      else
        pos :=
          Fdeque.fold
            (fun p j ->
              Bytes.unsafe_set b p (Char.unsafe_chr j);
              p + 1)
            (p + 6) q
    done;
    Bytes.unsafe_set b !pos (Char.unsafe_chr flight_len);
    incr pos;
    let rec fl p = function
      | [] -> p
      | m :: rest ->
        Bytes.unsafe_set b p (Char.unsafe_chr (msrc m));
        Bytes.unsafe_set b (p + 1) (Char.unsafe_chr (mdst m));
        Bytes.unsafe_set b (p + 2) (if mis_tok m then '\001' else '\000');
        Bytes.unsafe_set b (p + 3) (Char.unsafe_chr (mval m));
        fl (p + 4) rest
    in
    let len = fl !pos st.flight in
    (Bytes.sub_string b 0 len, flight_len)
  end

let encode st = fst (encode_len st)

(* A successor differs from its parent in at most a couple of node words
   plus the flight bag, so when the parent's key is at hand (the explorer
   keeps it alongside each queued state) the successor's key is the
   parent's bytes blitted wholesale, changed node words re-written in
   place, and the flight tail rebuilt. Valid only when the two states
   agree byte-for-byte on the queue region — guaranteed when they share
   the queues array (the copy-on-write builders share it exactly when no
   deque is touched) — and when both fit the all-single-byte fast format;
   anything else falls back to the generic encoder. Wishes only ever
   decrease and node ids are below [n], so a small parent implies small
   changed words. *)
let encode_delta ~parent ~parent_key st' =
  let n = Array.length st'.packed in
  let fl' = List.length st'.flight in
  if
    st'.queues != parent.queues
    || n >= 254 || fl' >= 254
    || small_nodes parent n 0 2 < 0
  then encode_len st'
  else begin
    let flp = List.length parent.flight in
    let node_end = String.length parent_key - 1 - (4 * flp) in
    let len = node_end + 1 + (4 * fl') in
    let b = Bytes.create len in
    Bytes.blit_string parent_key 0 b 0 node_end;
    let off = ref 1 in
    for i = 0 to n - 1 do
      let w = Array.unsafe_get st'.packed i in
      let p = !off in
      if w <> Array.unsafe_get parent.packed i then begin
        Bytes.unsafe_set b p (Char.unsafe_chr (nfather w + 1));
        Bytes.unsafe_set b (p + 1) (Char.unsafe_chr (flags_nibble w));
        Bytes.unsafe_set b (p + 2) (Char.unsafe_chr (nlender w));
        Bytes.unsafe_set b (p + 3) (Char.unsafe_chr (nmandator w + 1));
        Bytes.unsafe_set b (p + 4) (Char.unsafe_chr (nwishes w))
        (* queue-length byte at [p + 5] is untouched by construction *)
      end;
      off := p + 6 + Fdeque.length (Array.unsafe_get st'.queues i)
    done;
    assert (!off = node_end);
    Bytes.unsafe_set b node_end (Char.unsafe_chr fl');
    let rec fl p = function
      | [] -> ()
      | m :: rest ->
        Bytes.unsafe_set b p (Char.unsafe_chr (msrc m));
        Bytes.unsafe_set b (p + 1) (Char.unsafe_chr (mdst m));
        Bytes.unsafe_set b (p + 2) (if mis_tok m then '\001' else '\000');
        Bytes.unsafe_set b (p + 3) (Char.unsafe_chr (mval m));
        fl (p + 4) rest
    in
    fl (node_end + 1) st'.flight;
    (Bytes.unsafe_to_string b, fl')
  end

let decode s =
  let pos = ref 0 in
  let get_byte () =
    let c = Char.code (String.unsafe_get s !pos) in
    incr pos;
    c
  in
  let get_int () =
    let c = get_byte () in
    if c < 254 then c
    else begin
      let v = ref 0 in
      for k = 0 to 7 do
        v := !v lor (get_byte () lsl (8 * k))
      done;
      !v
    end
  in
  let read_node () =
    let father = get_int () - 1 in
    let flags = get_byte () in
    let lender = get_int () in
    let mandator = get_int () - 1 in
    let wishes_left = get_int () in
    let qlen = get_int () in
    let rec elems k =
      if k = 0 then []
      else
        let x = get_int () in
        x :: elems (k - 1)
    in
    let queue = Fdeque.of_list (elems qlen) in
    ( make_word ~father
        ~token_here:(flags land 1 <> 0)
        ~asking:(flags land 2 <> 0)
        ~in_cs:(flags land 4 <> 0)
        ~lender ~mandator ~wishes_left
      lor (if flags land 8 <> 0 then bit_dead else 0),
      queue )
  in
  let n = get_int () in
  let packed = Array.make n 0 in
  let queues = Array.make n Fdeque.empty in
  for i = 0 to n - 1 do
    let w, q = read_node () in
    packed.(i) <- w;
    queues.(i) <- q
  done;
  let fl = get_int () in
  let rec msgs k =
    if k = 0 then []
    else
      let src = get_int () in
      let dst = get_int () in
      let tag = get_byte () in
      let m =
        if tag = 0 then mk_req ~src ~dst (get_int ())
        else mk_tok ~src ~dst (get_int () - 1)
      in
      m :: msgs (k - 1)
  in
  { packed; queues; flight = msgs fl }

(* --- node relabeling ----------------------------------------------------- *)

(* [relabel perm st] renames every node id through the bijection [perm]
   (image array): node [i]'s word moves to slot [perm.(i)] with its
   father/lender/mandator fields, queue entries and flight end-points
   renamed. The result is canonical (queues rebuilt, flight re-sorted)
   whatever the input. This is the state half of symmetry reduction; it
   is only semantics-preserving when [perm] is a [dist]-preserving
   automorphism — {!Symmetry} owns that obligation. *)
let relabel perm st =
  let n = Array.length st.packed in
  let packed = Array.make n 0 in
  let queues = Array.make n Fdeque.empty in
  for i = 0 to n - 1 do
    let w = st.packed.(i) in
    let i' = Array.unsafe_get perm i in
    let f = nfather w in
    let m = nmandator w in
    packed.(i') <-
      make_word
        ~father:(if f < 0 then -1 else perm.(f))
        ~token_here:(ntoken w) ~asking:(nasking w) ~in_cs:(nincs w)
        ~lender:perm.(nlender w)
        ~mandator:(if m < 0 then -1 else perm.(m))
        ~wishes_left:(nwishes w)
      lor (w land bit_dead);
    let q = st.queues.(i) in
    queues.(i') <-
      (if Fdeque.is_empty q then Fdeque.empty
       else
         Fdeque.of_list
           (List.rev (Fdeque.fold (fun acc j -> perm.(j) :: acc) [] q)))
  done;
  let flight =
    List.sort Int.compare
      (List.map
         (fun m ->
           let src = perm.(msrc m) and dst = perm.(mdst m) in
           if mis_tok m then
             let l = mval m - 1 in
             mk_tok ~src ~dst (if l < 0 then -1 else perm.(l))
           else mk_req ~src ~dst perm.(mval m))
         st.flight)
  in
  { packed; queues; flight }

(* --- streamed relabelled keys -------------------------------------------- *)

(* Symmetry reduction's inner loop is the least [encode (relabel perm st)]
   over a whole permutation group. Building every relabelled state and
   encoding it in full costs a fresh state and a fresh string per group
   element, yet almost every element loses to the incumbent minimum
   within its first few bytes. So each permutation's key is written
   straight from [st] into a per-domain scratch buffer — output slot [j]
   reads node [inv.(j)], and every id it carries is renamed through
   [perm] — compared with the incumbent byte by byte as it is written,
   and abandoned at the first greater byte. A winner's buffer becomes the
   incumbent by a swap; only the final minimum is copied out as a string.

   The writer follows [encode]'s wire format, escapes included, so keys
   of different permutations may differ in length (at p >= 8 ids >= 254
   take nine bytes); the comparison is therefore [String.compare]'s:
   bytewise, a proper prefix first. Queues and the flight bag are
   flattened into int arrays once per state; the flight is relabelled
   and insertion-sorted only by candidates still tied when they reach
   it. *)

type relabel_scratch = {
  mutable best : Bytes.t;  (* the incumbent minimum, [best_len] bytes *)
  mutable best_len : int;
  mutable cand : Bytes.t;  (* the candidate being written *)
  mutable tied : bool;  (* the candidate equals [best] on every byte so far *)
  mutable qoff : int array;  (* node i's queue: qbuf.(qoff.(i)) .. qoff.(i+1)-1 *)
  mutable qbuf : int array;
  mutable fbuf : int array;  (* the flight bag, as stored *)
  mutable fsort : int array;  (* the flight bag, relabelled and sorted *)
}

let relabel_scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        best = Bytes.create 256;
        best_len = 0;
        cand = Bytes.create 256;
        tied = false;
        qoff = [||];
        qbuf = [||];
        fbuf = [||];
        fsort = [||];
      })

exception Lost

(* One output byte: stored, then compared with the incumbent while the
   candidate is still tied with it. *)
let[@inline] emit s pos c =
  Bytes.unsafe_set s.cand pos (Char.unsafe_chr c);
  if s.tied then begin
    if pos >= s.best_len then raise_notrace Lost;
    let d = Char.code (Bytes.unsafe_get s.best pos) in
    if c > d then raise_notrace Lost;
    if c < d then s.tied <- false
  end;
  pos + 1

let emit_escape s pos v =
  let pos = ref (emit s pos 254) in
  for k = 0 to 7 do
    pos := emit s !pos ((v lsr (8 * k)) land 0xff)
  done;
  !pos

let[@inline] emit_int s pos v =
  if v < 254 then emit s pos v else emit_escape s pos v

(* Flatten [st]'s queues and flight into the scratch and size both key
   buffers for the longest possible key (every int escaped); returns the
   flight length. *)
let prepare s st n =
  if Array.length s.qoff <= n then s.qoff <- Array.make (n + 1) 0;
  let qoff = s.qoff in
  let total = ref 0 in
  for i = 0 to n - 1 do
    qoff.(i) <- !total;
    total := !total + Fdeque.length st.queues.(i)
  done;
  qoff.(n) <- !total;
  if Array.length s.qbuf < !total then s.qbuf <- Array.make (2 * !total) 0;
  let qbuf = s.qbuf in
  for i = 0 to n - 1 do
    let q = st.queues.(i) in
    if not (Fdeque.is_empty q) then
      ignore
        (Fdeque.fold
           (fun x j ->
             qbuf.(x) <- j;
             x + 1)
           qoff.(i) q
          : int)
  done;
  let fl = List.length st.flight in
  if Array.length s.fbuf < fl then begin
    s.fbuf <- Array.make (2 * fl) 0;
    s.fsort <- Array.make (2 * fl) 0
  end;
  List.iteri (fun x m -> s.fbuf.(x) <- m) st.flight;
  let cap = (9 * (2 + (5 * n) + !total + (3 * fl))) + n + fl in
  if Bytes.length s.best < cap then begin
    s.best <- Bytes.create (2 * cap);
    s.cand <- Bytes.create (2 * cap)
  end;
  fl

(* The candidate key of [perm] (inverse [inv]) into [s.cand]; returns its
   length, or raises [Lost] at the first byte above the incumbent. *)
let write_relabeled s perm inv st n fl =
  let packed = st.packed
  and qoff = s.qoff
  and qbuf = s.qbuf in
  let pos = ref (emit_int s 0 n) in
  for j = 0 to n - 1 do
    let i = inv.(j) in
    let w = packed.(i) in
    let f = nfather w
    and m = nmandator w in
    let p = emit_int s !pos (if f < 0 then 0 else perm.(f) + 1) in
    let p = emit s p (flags_nibble w) in
    let p = emit_int s p perm.(nlender w) in
    let p = emit_int s p (if m < 0 then 0 else perm.(m) + 1) in
    let p = emit_int s p (nwishes w) in
    let q0 = qoff.(i)
    and q1 = qoff.(i + 1) in
    let p = ref (emit_int s p (q1 - q0)) in
    for x = q0 to q1 - 1 do
      p := emit_int s !p perm.(Array.unsafe_get qbuf x)
    done;
    pos := !p
  done;
  let pos = ref (emit_int s !pos fl) in
  let fbuf = s.fbuf
  and fs = s.fsort in
  for x = 0 to fl - 1 do
    let msg = Array.unsafe_get fbuf x in
    let src = perm.(msrc msg)
    and dst = perm.(mdst msg) in
    let m =
      if mis_tok msg then
        let l = mval msg - 1 in
        mk_tok ~src ~dst (if l < 0 then -1 else perm.(l))
      else mk_req ~src ~dst perm.(mval msg)
    in
    let y = ref (x - 1) in
    while !y >= 0 && Array.unsafe_get fs !y > m do
      Array.unsafe_set fs (!y + 1) (Array.unsafe_get fs !y);
      decr y
    done;
    Array.unsafe_set fs (!y + 1) m
  done;
  for x = 0 to fl - 1 do
    let m = Array.unsafe_get fs x in
    let p = emit_int s !pos (msrc m) in
    let p = emit_int s p (mdst m) in
    let p = emit s p (if mis_tok m then 1 else 0) in
    pos := emit_int s p (mval m)
  done;
  !pos

type min_key = { key : string; in_flight : int; arg : int; ties : int }

let min_relabeled_key perms invs st =
  let n = Array.length st.packed in
  let g = Array.length perms in
  if g = 0 || Array.length invs <> g then
    invalid_arg "Spec.min_relabeled_key: empty or mismatched group";
  for k = 0 to g - 1 do
    if Array.length perms.(k) <> n || Array.length invs.(k) <> n then
      invalid_arg "Spec.min_relabeled_key: permutation size <> node count"
  done;
  let s = Domain.DLS.get relabel_scratch_key in
  let fl = prepare s st n in
  let arg = ref 0
  and ties = ref 0 in
  for k = 0 to g - 1 do
    (* the first candidate has no incumbent to lose to *)
    s.tied <- k > 0;
    match write_relabeled s perms.(k) invs.(k) st n fl with
    | len when s.tied && len = s.best_len -> incr ties
    | len ->
      let b = s.best in
      s.best <- s.cand;
      s.cand <- b;
      s.best_len <- len;
      arg := k;
      ties := 1
    | exception Lost -> ()
  done;
  {
    key = Bytes.sub_string s.best 0 s.best_len;
    in_flight = fl;
    arg = !arg;
    ties = !ties;
  }

let encode_relabeled perm inv st =
  (min_relabeled_key [| perm |] [| inv |] st).key

let pp_transition ppf = function
  | Wish i -> Format.fprintf ppf "wish %d" i
  | Exit i -> Format.fprintf ppf "exit %d" i
  | Crash i -> Format.fprintf ppf "crash %d" i
  | Deliver { src; dst; payload = Req j } ->
    Format.fprintf ppf "deliver %d->%d req(%d)" src dst j
  | Deliver { src; dst; payload = Tok l } ->
    Format.fprintf ppf "deliver %d->%d tok(%d)" src dst l

let pp ppf st =
  for i = 0 to num_nodes st - 1 do
    let nd = node st i in
    if nd.dead then Format.fprintf ppf "node %d: DEAD@." i
    else
      Format.fprintf ppf
        "node %d: father=%d token=%b asking=%b in_cs=%b lender=%d mandator=%d \
         queue=[%s] wishes=%d@."
        i nd.father nd.token_here nd.asking nd.in_cs nd.lender nd.mandator
        (String.concat ";" (List.map string_of_int (Fdeque.to_list nd.queue)))
        nd.wishes_left
  done;
  List.iter
    (fun m ->
      match msg_of_int m with
      | { src; dst; payload = Req j } ->
        Format.fprintf ppf "flight: %d -> %d req(%d)@." src dst j
      | { src; dst; payload = Tok l } ->
        Format.fprintf ppf "flight: %d -> %d tok(%d)@." src dst l)
    st.flight
