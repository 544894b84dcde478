module Pool = Ocube_par.Pool

type stats = {
  states : int;
  transitions : int;
  terminals : int;
  max_in_flight : int;
  max_depth : int;
  orbit_states : int;
  spilled_segments : int;
  spilled_bytes : int;
}

type violation = {
  message : string;
  state : Spec.state;
  trace : Spec.transition list;
}

exception Violation of violation

let too_big max_states =
  failwith (Printf.sprintf "Explore.run: state space exceeds %d" max_states)

(* --- growable buffers ---------------------------------------------------- *)

(* Per-state metadata (parent id, packed label+perm) and the next-level
   key run, as growable vectors: every state is appended exactly once,
   nothing is ever shifted. *)

type ibuf = { mutable ints : int array; mutable ilen : int }

let ibuf_create () = { ints = Array.make 1_024 0; ilen = 0 }

let ibuf_push b v =
  if b.ilen = Array.length b.ints then begin
    let n = Array.make (2 * b.ilen) 0 in
    Array.blit b.ints 0 n 0 b.ilen;
    b.ints <- n
  end;
  b.ints.(b.ilen) <- v;
  b.ilen <- b.ilen + 1

let[@inline] ibuf_get b i = b.ints.(i)

type sbuf = { mutable strs : string array; mutable slen : int }

let sbuf_create () = { strs = Array.make 1_024 ""; slen = 0 }

let sbuf_push b v =
  if b.slen = Array.length b.strs then begin
    let n = Array.make (2 * b.slen) "" in
    Array.blit b.strs 0 n 0 b.slen;
    b.strs <- n
  end;
  b.strs.(b.slen) <- v;
  b.slen <- b.slen + 1

let sbuf_reset b =
  Array.fill b.strs 0 b.slen "";
  b.slen <- 0

let sbuf_snapshot b = Array.sub b.strs 0 b.slen

(* --- packed transition labels -------------------------------------------- *)

(* A label is [tag lor (payload lsl 2)]: tags 0..3 for Wish/Exit/Deliver/
   Crash, the payload a node id or a packed message int (< 2^32), so a
   label fits 34 bits. A state's meta word is [label lor (sigma lsl 34)]
   where [sigma] is the index (< 1024) of the automorphism mapping the
   concrete reachable state to the stored canonical representative —
   0 whenever symmetry is off. *)

let lbl_wish i = 0 lor (i lsl 2)
let lbl_exit i = 1 lor (i lsl 2)
let lbl_deliver m = 2 lor (m lsl 2)
let lbl_crash i = 3 lor (i lsl 2)

let transition_of_label l =
  match l land 3 with
  | 0 -> Spec.Wish (l lsr 2)
  | 1 -> Spec.Exit (l lsr 2)
  | 2 -> Spec.Deliver (Spec.msg_of_int (l lsr 2))
  | _ -> Spec.Crash (l lsr 2)

let meta_mask = (1 lsl 34) - 1
let[@inline] meta_label m = m land meta_mask
let[@inline] meta_sigma m = m lsr 34

(* --- trace reconstruction ------------------------------------------------- *)

(* Stored labels live on the canonical side of each expansion: the edge
   into state [id] was found while expanding the canonical parent
   [c = sigma_parent(r)], so the concrete label is the stored one pulled
   back through [sigma_parent^-1]; the concrete violating state is the
   stored canonical pulled back through its own [sigma^-1]. With
   symmetry off every sigma is the identity and both are no-ops. *)

let concretize_label sym parents metas id =
  let label = transition_of_label (meta_label (ibuf_get metas id)) in
  match sym with
  | None -> label
  | Some t ->
    let sigma_parent = meta_sigma (ibuf_get metas (ibuf_get parents id)) in
    Symmetry.apply_transition t (Symmetry.inverse t sigma_parent) label

let concretize_state sym metas id st =
  match sym with
  | None -> st
  | Some t ->
    let sigma = meta_sigma (ibuf_get metas id) in
    Spec.relabel (Symmetry.perm t (Symmetry.inverse t sigma)) st

(* The concrete transition labels along the BFS tree path from the
   initial state to state [id]. *)
let trace_to sym parents metas id =
  let rec path id acc =
    if id <= 0 then acc else path (ibuf_get parents id) (id :: acc)
  in
  List.map (concretize_label sym parents metas) (path id [])

(* --- serial BFS ----------------------------------------------------------- *)

(* The hot loop is fused: each successor is encoded, deduplicated and
   invariant-checked by the {!Spec.iter_transitions} callback the moment
   the spec builds it, while its arrays are still cache-hot — fresh
   states are checked here (once, at first discovery) rather than when
   dequeued, which visits the same set of states.

   The BFS queue is a growable array of states indexed by a read cursor:
   every state is pushed exactly once, so the array doubles like a vector
   and nothing is ever shifted; the queue position is the state's id,
   which indexes the parent/label vectors that traces are rebuilt from.
   Depth is tracked with level marks ([level_end] is the queue index
   where the current BFS level ends) instead of a per-entry counter. *)
let run_serial ~max_states ~max_faults ~variant ~p ~wishes =
  let initial = Spec.initial ~p ~wishes in
  (match Spec.check_invariants initial with
  | Ok () -> ()
  | Error message -> raise (Violation { message; state = initial; trace = [] }));
  let visited = Keyset.create 1_024 in
  let queue = ref (Array.make 1_024 initial) in
  let keys = ref (Array.make 1_024 "") in
  let parents = ibuf_create ()
  and metas = ibuf_create () in
  let head = ref 0
  and tail = ref 0 in
  let states = ref 0
  and transitions = ref 0
  and terminals = ref 0
  and max_in_flight = ref 0
  and max_depth = ref 0 in
  let parent = ref initial
  and parent_key = ref ""
  and parent_id = ref 0 in
  let on_successor label st' =
    incr transitions;
    let key, fl =
      Spec.encode_delta ~parent:!parent ~parent_key:!parent_key st'
    in
    if Keyset.add_if_absent visited key then begin
      (match Spec.check_invariants st' with
      | Ok () -> ()
      | Error message ->
        raise
          (Violation
             {
               message;
               state = st';
               trace =
                 trace_to None parents metas !parent_id
                 @ [ transition_of_label label ];
             }));
      incr states;
      if !states > max_states then too_big max_states;
      if fl > !max_in_flight then max_in_flight := fl;
      let q = !queue in
      let cap = Array.length q in
      if !tail = cap then begin
        let nq = Array.make (2 * cap) initial in
        Array.blit q 0 nq 0 cap;
        queue := nq;
        let nk = Array.make (2 * cap) "" in
        Array.blit !keys 0 nk 0 cap;
        keys := nk
      end;
      !queue.(!tail) <- st';
      !keys.(!tail) <- key;
      ibuf_push parents !parent_id;
      ibuf_push metas label;
      incr tail
    end
  in
  let wish i st' = on_successor (lbl_wish i) st'
  and exit i st' = on_successor (lbl_exit i) st'
  and deliver m st' = on_successor (lbl_deliver m) st'
  and crash i st' = on_successor (lbl_crash i) st' in
  let key0, fl0 = Spec.encode_len initial in
  ignore (Keyset.add_if_absent visited key0 : bool);
  !queue.(0) <- initial;
  !keys.(0) <- key0;
  tail := 1;
  states := 1;
  max_in_flight := fl0;
  ibuf_push parents (-1);
  ibuf_push metas 0;
  let level_end = ref 1 in
  while !head < !tail do
    if !head = !level_end then begin
      incr max_depth;
      level_end := !tail
    end;
    let st = !queue.(!head) in
    parent := st;
    parent_key := !keys.(!head);
    parent_id := !head;
    (* drop the queue's references so expanded states can die in the
       minor heap instead of being promoted with the queue array *)
    !queue.(!head) <- initial;
    !keys.(!head) <- "";
    incr head;
    let succs = Spec.iter_transitions ~max_faults ~variant st ~wish ~exit
        ~deliver ~crash
    in
    if succs = 0 then begin
      incr terminals;
      match Spec.check_terminal st with
      | Ok () -> ()
      | Error msg ->
        raise
          (Violation
             {
               message = "terminal: " ^ msg;
               state = st;
               trace = trace_to None parents metas !parent_id;
             })
    end
  done;
  {
    states = !states;
    transitions = !transitions;
    terminals = !terminals;
    max_in_flight = !max_in_flight;
    max_depth = !max_depth;
    orbit_states = !states;
    spilled_segments = 0;
    spilled_bytes = 0;
  }

(* --- level-synchronous BFS ------------------------------------------------ *)

(* The engine behind [jobs > 1], [~symmetry] and [~mem_budget] — in any
   combination. The frontier holds packed keys only (canonical keys when
   symmetry is on); states are decoded at expansion time. Each level is
   streamed in fixed-size chunks:

   1. Expand (parallel): every chunk key is decoded, invariant-checked
      and expanded on some domain; each successor comes back
      canonicalized with its key, hash shard, in-flight count, orbit
      size, transition label and composed automorphism index. Failures
      are *returned*, not raised, and the serial scan below reports the
      lowest-frontier-index one — the same violation at every width.

   2. Dedup (parallel): the visited set is sharded by key hash over a
      fixed shard count (independent of [jobs]), one shard owner per
      parallel index, inserting fresh keys in (frontier index, successor
      index) order. A serial pass first buckets the chunk's successors
      by shard, so the dedup costs O(successors), not O(successors ×
      shards).

   3. Assemble (serial): fresh states get consecutive ids in (shard,
      discovery) order; their parent/meta words are appended and their
      keys pushed onto the next level, spilling front-coded segments to
      temp files whenever the in-memory run exceeds the byte budget.

   Chunking never changes what is fresh (the visited shards carry across
   chunks) and the shard count never depends on the pool width, so ids,
   traces and stats are bit-identical at every [jobs] — and segments are
   written and read back in discovery order, so spilling is invisible to
   everything but the spill counters. *)

let shard_count = 64
let chunk_cap = 2_048

type expand_result =
  | Succs of (int * string * int * int * int * int) array
      (* shard, key, in-flight, orbit, label, composed sigma *)
  | Term  (* terminal, check passed *)
  | Bad of string * Spec.state  (* check failed on the expanded state *)

let run_levelwise ~max_states ~pool ~max_faults ~variant ~sym ~mem_budget ~p
    ~wishes =
  let visited = Array.init shard_count (fun _ -> Keyset.create 4_096) in
  let shard_of (key : string) = Hashtbl.hash key mod shard_count in
  let parents = ibuf_create ()
  and metas = ibuf_create () in
  let states = ref 0
  and transitions = ref 0
  and terminals = ref 0
  and max_in_flight = ref 0
  and max_depth = ref 0
  and orbit_states = ref 0
  and spilled_segments = ref 0
  and spilled_bytes = ref 0 in
  let canon st =
    match sym with
    | Some t ->
      let c = Symmetry.canonicalize t st in
      (c.Symmetry.key, c.Symmetry.in_flight, c.Symmetry.perm_index,
       c.Symmetry.orbit)
    | None ->
      let key, fl = Spec.encode_len st in
      (key, fl, 0, 1)
  in
  let compose_sigma pi sigma =
    match sym with None -> 0 | Some t -> Symmetry.compose t pi sigma
  in
  let raise_bad ~id ~message ~canonical_state =
    raise
      (Violation
         {
           message;
           state = concretize_state sym metas id canonical_state;
           trace = trace_to sym parents metas id;
         })
  in
  (* next-level accumulation, spilling past the byte budget *)
  let budget = match mem_budget with None -> max_int | Some b -> max 1 b in
  let all_segments = ref [] in
  let next = sbuf_create ()
  and next_segments = ref []
  and next_count = ref 0
  and next_bytes = ref 0 in
  let push_next key =
    sbuf_push next key;
    incr next_count;
    next_bytes := !next_bytes + String.length key + 24;
    if !next_bytes > budget then begin
      let seg = Spill.write next.strs ~pos:0 ~len:next.slen in
      all_segments := seg :: !all_segments;
      next_segments := seg :: !next_segments;
      incr spilled_segments;
      spilled_bytes := !spilled_bytes + Spill.bytes seg;
      sbuf_reset next;
      next_bytes := 0
    end
  in
  let take_next () =
    let segs = List.rev !next_segments in
    let mem = sbuf_snapshot next in
    let total = !next_count in
    next_segments := [];
    sbuf_reset next;
    next_bytes := 0;
    next_count := 0;
    (segs, mem, total)
  in
  (* expansion worker: pure apart from shared read-only tables *)
  let expand key sigma_parent =
    let st = Spec.decode key in
    match Spec.check_invariants st with
    | Error message -> Bad (message, st)
    | Ok () ->
      let acc = ref [] in
      let add label st' =
        let key', fl', pi, orbit = canon st' in
        acc :=
          (shard_of key', key', fl', orbit, label, compose_sigma pi sigma_parent)
          :: !acc
      in
      let n =
        Spec.iter_transitions ~max_faults ~variant st
          ~wish:(fun i st' -> add (lbl_wish i) st')
          ~exit:(fun i st' -> add (lbl_exit i) st')
          ~deliver:(fun m st' -> add (lbl_deliver m) st')
          ~crash:(fun i st' -> add (lbl_crash i) st')
      in
      if n = 0 then
        match Spec.check_terminal st with
        | Ok () -> Term
        | Error msg -> Bad ("terminal: " ^ msg, st)
      else Succs (Array.of_list (List.rev !acc))
  in
  let chunk_keys = Array.make chunk_cap "" in
  let process_chunk ~chunk_base ~len =
    let results =
      Pool.map_array pool ~n:len (fun i ->
          let sigma = meta_sigma (ibuf_get metas (chunk_base + i)) in
          expand chunk_keys.(i) sigma)
    in
    Array.iteri
      (fun i r ->
        match r with
        | Bad (message, st) ->
          raise_bad ~id:(chunk_base + i) ~message ~canonical_state:st
        | Term -> incr terminals
        | Succs a -> transitions := !transitions + Array.length a)
      results;
    (* One serial pass files every successor under its shard in
       (frontier index, successor index) order — both arrays are walked
       backwards and consed onto — so each shard owner reads only its
       own successors instead of scanning the whole chunk. *)
    let buckets = Array.make shard_count [] in
    for i = len - 1 downto 0 do
      match results.(i) with
      | Term | Bad _ -> ()
      | Succs a ->
        for j = Array.length a - 1 downto 0 do
          let ((sh, _, _, _, _, _) as e) = a.(j) in
          buckets.(sh) <- (chunk_base + i, e) :: buckets.(sh)
        done
    done;
    let fresh = Array.make shard_count [||] in
    Pool.parallel_for pool ~n:shard_count (fun s ->
        let tbl = visited.(s) in
        fresh.(s) <-
          Array.of_list
            (List.filter
               (fun (_, (_, key, _, _, _, _)) -> Keyset.add_if_absent tbl key)
               buckets.(s)));
    Array.iter
      (fun arr ->
        Array.iter
          (fun (parent_id, (_, key, fl, orbit, label, sigma)) ->
            incr states;
            if !states > max_states then too_big max_states;
            orbit_states := !orbit_states + orbit;
            if fl > !max_in_flight then max_in_flight := fl;
            ibuf_push parents parent_id;
            ibuf_push metas (label lor (sigma lsl 34));
            push_next key)
          arr)
      fresh
  in
  (* seed *)
  let initial = Spec.initial ~p ~wishes in
  (match Spec.check_invariants initial with
  | Ok () -> ()
  | Error message -> raise (Violation { message; state = initial; trace = [] }));
  let key0, fl0, pi0, orbit0 = canon initial in
  ignore (Keyset.add_if_absent visited.(shard_of key0) key0 : bool);
  ibuf_push parents (-1);
  ibuf_push metas (pi0 lsl 34);
  states := 1;
  orbit_states := orbit0;
  max_in_flight := fl0;
  push_next key0;
  Fun.protect
    ~finally:(fun () -> List.iter Spill.remove !all_segments)
    (fun () ->
      let level = ref 0
      and base = ref 0 in
      let running = ref true in
      while !running do
        let segs, mem, total = take_next () in
        if total = 0 then running := false
        else begin
          max_depth := !level;
          let processed = ref 0
          and fill = ref 0 in
          let flush () =
            if !fill > 0 then begin
              process_chunk ~chunk_base:(!base + !processed) ~len:!fill;
              processed := !processed + !fill;
              fill := 0
            end
          in
          let feed key =
            chunk_keys.(!fill) <- key;
            incr fill;
            if !fill = chunk_cap then flush ()
          in
          List.iter (fun seg -> Spill.iter seg feed) segs;
          Array.iter feed mem;
          flush ();
          List.iter Spill.remove segs;
          base := !base + total;
          incr level
        end
      done);
  {
    states = !states;
    transitions = !transitions;
    terminals = !terminals;
    max_in_flight = !max_in_flight;
    max_depth = !max_depth;
    orbit_states = !orbit_states;
    spilled_segments = !spilled_segments;
    spilled_bytes = !spilled_bytes;
  }

(* --- entry points --------------------------------------------------------- *)

let run ?(max_states = 5_000_000) ?(jobs = 1) ?(max_faults = 0)
    ?(variant = Spec.Faithful) ?(symmetry = false) ?mem_budget ~p ~wishes () =
  let sym = if symmetry then Some (Symmetry.table ~p) else None in
  match (sym, mem_budget) with
  | None, None when jobs <= 1 -> run_serial ~max_states ~max_faults ~variant ~p ~wishes
  | _ ->
    Pool.with_pool ~jobs (fun pool ->
        run_levelwise ~max_states ~pool ~max_faults ~variant ~sym ~mem_budget
          ~p ~wishes)

let transition_equal a b =
  match (a, b) with
  | Spec.Wish i, Spec.Wish j | Spec.Exit i, Spec.Exit j | Spec.Crash i, Spec.Crash j
    ->
    i = j
  | Spec.Deliver m, Spec.Deliver m' -> Spec.int_of_msg m = Spec.int_of_msg m'
  | _, _ -> false

let replay ?(max_faults = 0) ?(variant = Spec.Faithful) ~p ~wishes trace =
  List.fold_left
    (fun st tr ->
      match
        List.find_opt
          (fun (t, _) -> transition_equal t tr)
          (Spec.transitions ~max_faults ~variant st)
      with
      | Some (_, st') -> st'
      | None ->
        failwith
          (Format.asprintf "Explore.replay: %a is not enabled" Spec.pp_transition
             tr))
    (Spec.initial ~p ~wishes)
    trace

let pp_trace ppf trace =
  List.iteri
    (fun k tr ->
      if k > 0 then Format.pp_print_string ppf "; ";
      Spec.pp_transition ppf tr)
    trace
