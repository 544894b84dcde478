(* Hashed hierarchical timing wheel over arena slots.

   Three levels of 256 buckets hash an event's absolute tick index
   [ab = floor(time / tick)] by its distance [d = ab - cur] from the
   wheel's current tick:

     d = 0                the tick being drained: its sorted run, or
                          the near-heap for late arrivals
     d in [1, 2^8)        level 0, bucket [ab land 255]
     d in [2^8, 2^16)     level 1, bucket [(ab lsr 8) land 255]
     d in [2^16, 2^24)    level 2, bucket [(ab lsr 16) land 255]
     d >= 2^24            the far-future overflow heap

   Buckets are intrusive singly-linked lists through the arena's [next]
   words, so schedule is O(1) and allocation-free. Every event in a
   level-0 bucket shares one tick index. When [cur] reaches it, the
   bucket becomes the current-tick run: a list sorted by the arena's
   exact [(time, seq)] key with a natural merge sort over the [next]
   links. Under a constant delay δ a message wave is scheduled in
   [(time, seq)] order, so the sort finds one run in a single O(n) scan
   and each event then costs O(1) to pop: no per-event sift, however
   many thousands of events share the tick. Events that enter the tick
   after it started — zero-delay schedules, delays too short to leave
   the tick, [run ~until] push-backs — go to the near-heap, a binary
   heap on the same key that holds only those late arrivals. [pop]
   takes the earlier of the run head and the near-heap top, so firing
   follows the global [(time, seq)] order bit-for-bit — the wheel is
   order-identical to the binary-heap scheduler, which stays available
   as the determinism oracle.

   Higher-level buckets cascade exactly as in the classic kernel timer
   wheel: when [cur] crosses a multiple of 2^8 the matching level-1
   bucket is redistributed (its events now have d < 2^8; those of tick
   [cur] itself join the bucket about to become the run), multiples of
   2^16 redistribute level 2, and multiples of 2^24 pull the overflow
   heap up to the next 2^24-tick horizon. Advancing skips empty regions
   without scanning: if a level is empty the cursor jumps straight to
   the next cascade boundary of the level above, and if all wheels are
   empty it jumps to the overflow head's tick.

   Two safety valves keep the structure correct at the float fringes:
   an event whose tick index would not fit sane int arithmetic parks the
   wheel in degenerate heap mode ([cur = max_cur], everything lands in
   the near-heap), and an event scheduled into an already-passed tick
   (possible only after a horizon push-back) clamps to the current tick,
   where the near-heap's exact key keeps it correctly ordered. *)

let w_bits = 8

let w = 1 lsl w_bits

let w_mask = w - 1

let levels = 3

let span0 = w

let span1 = w * w

let span2 = w * w * w

(* Ticks beyond this park the wheel in degenerate heap mode; boundary
   arithmetic stays far from int overflow. *)
let max_cur = 1 lsl 60

type t = {
  arena : Arena.t;
  tick_inv : float;
  near : Arena.Slot_heap.heap;
  overflow : Arena.Slot_heap.heap;
  buckets : int array;  (* levels * w heads; Arena.no_slot = empty *)
  level_live : int array;
  mutable cur : int;  (* absolute index of the tick being drained *)
  mutable horizon : int;  (* overflow pulled up to this tick *)
  mutable run : int;  (* sorted events of tick [cur], linked via [next] *)
}

let create ~arena ~tick =
  if not (Float.is_finite tick) || tick <= 0.0 then
    invalid_arg "Wheel.create: tick must be positive and finite";
  {
    arena;
    tick_inv = 1.0 /. tick;
    near = Arena.Slot_heap.create arena;
    overflow = Arena.Slot_heap.create arena;
    buckets = Array.make (levels * w) Arena.no_slot;
    level_live = Array.make levels 0;
    cur = 0;
    horizon = span2;
    run = Arena.no_slot;
  }

let abucket t time =
  let f = time *. t.tick_inv in
  if f >= float_of_int max_cur then max_int else int_of_float f

let[@ocube.zero_alloc] link t lvl idx s =
  let i = (lvl lsl w_bits) lor idx in
  Arena.set_next t.arena s t.buckets.(i);
  t.buckets.(i) <- s;
  t.level_live.(lvl) <- t.level_live.(lvl) + 1

(* The slot's tick index, clamped to the current tick. Reads through the
   backing array ({!Arena.times}): no float is boxed here even with
   cross-module inlining off. *)
let[@ocube.zero_alloc] slot_tick t s =
  let f = Float.Array.get (Arena.times t.arena) s *. t.tick_inv in
  let ab = if f >= float_of_int max_cur then max_int else int_of_float f in
  if ab < t.cur then t.cur else ab

let[@ocube.zero_alloc] file_at t s ab =
  let d = ab - t.cur in
  if d < span0 then link t 0 (ab land w_mask) s
  else if d < span1 then link t 1 ((ab lsr w_bits) land w_mask) s
  else if d < span2 then link t 2 ((ab lsr (2 * w_bits)) land w_mask) s
  else Arena.Slot_heap.push t.overflow s

(* Bucket a slot while the cursor moves (cascades, overflow pulls):
   events of the new current tick join its level-0 bucket, which
   [move_current] then sorts into the run. *)
let[@ocube.zero_alloc] file t s = file_at t s (slot_tick t s)

(* A slot scheduled into the tick already being drained is a late
   arrival: it goes to the near-heap, which [pop] merges with the run. *)
let[@ocube.zero_alloc] insert t s =
  let ab = slot_tick t s in
  if ab = t.cur then Arena.Slot_heap.push t.near s else file_at t s ab

(* Drop cancelled events from the overflow top; peek the live head. *)
let[@ocube.zero_alloc] rec overflow_head t =
  let s = Arena.Slot_heap.peek t.overflow in
  if s <> Arena.no_slot && Arena.is_tombstone t.arena s then begin
    ignore (Arena.Slot_heap.pop t.overflow);
    Arena.release t.arena s;
    overflow_head t
  end
  else s

(* Pull overflow events whose tick is now within the wheel horizon. *)
let[@ocube.zero_alloc] rec pull t =
  let s = overflow_head t in
  if
    s <> Arena.no_slot
    && abucket t (Float.Array.get (Arena.times t.arena) s) < t.horizon
  then begin
    ignore (Arena.Slot_heap.pop t.overflow);
    file t s;
    pull t
  end

(* Redistribute one higher-level bucket: its events now sit less than a
   level-span away from [cur] and fall through to lower levels (or the
   current tick's bucket). Cancelled events are reclaimed instead of
   reinserted. *)
let[@ocube.zero_alloc] rec requeue_bucket t lvl s =
  if s <> Arena.no_slot then begin
    let nxt = Arena.next t.arena s in
    t.level_live.(lvl) <- t.level_live.(lvl) - 1;
    if Arena.is_tombstone t.arena s then Arena.release t.arena s
    else file t s;
    requeue_bucket t lvl nxt
  end

let[@ocube.zero_alloc] cascade t lvl idx =
  let i = (lvl lsl w_bits) lor idx in
  let head = t.buckets.(i) in
  t.buckets.(i) <- Arena.no_slot;
  requeue_bucket t lvl head

(* --- the current-tick run ------------------------------------------------

   When [cur] reaches a level-0 bucket, its events become the sorted
   run [t.run]. The bucket is LIFO (every [link] prepends), so a first
   pass reverses it into scheduling order, reclaiming tombstones; for a
   constant-delay wave that order is already ascending in [(time, seq)]
   and the natural merge sort below finds a single run in one O(n)
   scan. Anything else (a cascade from level 1, mixed delays) costs
   O(n log runs). The sort only relinks the arena's [next] words; it
   uses no buffer, so it allocates nothing and [create] pays nothing. *)

(* Reverse a level-0 bucket list onto [acc], releasing tombstones;
   returns the reversed head. *)
let[@ocube.zero_alloc] rec unlink_bucket t s acc =
  if s = Arena.no_slot then acc
  else begin
    let nxt = Arena.next t.arena s in
    t.level_live.(0) <- t.level_live.(0) - 1;
    if Arena.is_tombstone t.arena s then begin
      Arena.release t.arena s;
      unlink_bucket t nxt acc
    end
    else begin
      Arena.set_next t.arena s acc;
      unlink_bucket t nxt s
    end
  end

let[@ocube.zero_alloc] rec cut_run t last s =
  if s <> Arena.no_slot && Arena.before t.arena last s then
    cut_run t s (Arena.next t.arena s)
  else begin
    Arena.set_next t.arena last Arena.no_slot;
    s
  end

(* Detach the maximal ascending run that starts at [s] (non-empty);
   returns the rest of the list. *)
let[@ocube.zero_alloc] take_run t s = cut_run t s (Arena.next t.arena s)

let[@ocube.zero_alloc] rec last_of t s =
  let n = Arena.next t.arena s in
  if n = Arena.no_slot then s else last_of t n

(* Merge two ascending lists behind [last], at most one of them empty;
   returns the merged tail. *)
let[@ocube.zero_alloc] rec merge_into t last a b =
  if a = Arena.no_slot then begin
    Arena.set_next t.arena last b;
    last_of t b
  end
  else if b = Arena.no_slot then begin
    Arena.set_next t.arena last a;
    last_of t a
  end
  else if Arena.before t.arena a b then begin
    Arena.set_next t.arena last a;
    merge_into t a (Arena.next t.arena a) b
  end
  else begin
    Arena.set_next t.arena last b;
    merge_into t b a (Arena.next t.arena b)
  end

(* Merge two non-empty ascending runs; returns the merged tail. The
   merged head is whichever of [a] and [b] comes first. *)
let[@ocube.zero_alloc] merge t a b =
  if Arena.before t.arena a b then merge_into t a (Arena.next t.arena a) b
  else merge_into t b a (Arena.next t.arena b)

let[@ocube.zero_alloc] first t a b = if Arena.before t.arena a b then a else b

(* One bottom-up pass over the list at [s]: merge adjacent run pairs
   and append each result behind [out_tail]. *)
let[@ocube.zero_alloc] rec merge_pass t out_tail s =
  if s <> Arena.no_slot then begin
    let r = take_run t s in
    if r = Arena.no_slot then Arena.set_next t.arena out_tail s
    else begin
      let rest = take_run t r in
      Arena.set_next t.arena out_tail (first t s r);
      merge_pass t (merge t s r) rest
    end
  end

(* Natural merge sort by [(time, seq)]: one O(n) scan for a list that is
   already sorted, ceil(log2 runs) passes otherwise. *)
let[@ocube.zero_alloc] rec sort_slots t head =
  let r = take_run t head in
  if r = Arena.no_slot then head
  else begin
    (* The first pair is merged here to fix the list head; the pass
       appends every later pair behind it. *)
    let rest = take_run t r in
    let h = first t head r in
    merge_pass t (merge t head r) rest;
    sort_slots t h
  end

(* The level-0 bucket at [cur] holds exactly the events of tick [cur];
   make them the sorted run. Called only once the previous run and the
   near-heap are both drained. *)
let[@ocube.zero_alloc] move_current t =
  let i = t.cur land w_mask in
  let head = t.buckets.(i) in
  if head <> Arena.no_slot then begin
    t.buckets.(i) <- Arena.no_slot;
    let rev = unlink_bucket t head Arena.no_slot in
    if rev <> Arena.no_slot then t.run <- sort_slots t rev
  end

(* All wheels empty: jump to the overflow head's tick. Ticks beyond
   [max_cur] conflate in [abucket]; parking [cur] at [max_cur] routes
   every subsequent insert into the near-heap, whose exact (time, seq)
   key keeps the order right — the wheel degenerates into a plain heap
   instead of mis-bucketing astronomical times. *)
let[@ocube.zero_alloc] rec drain_overflow t =
  let s = overflow_head t in
  if s <> Arena.no_slot then begin
    ignore (Arena.Slot_heap.pop t.overflow);
    Arena.Slot_heap.push t.near s;
    drain_overflow t
  end

let[@ocube.zero_alloc] jump t =
  let h = overflow_head t in
  if h <> Arena.no_slot then begin
    let ab0 = abucket t (Float.Array.get (Arena.times t.arena) h) in
    if ab0 >= max_cur then begin
      t.cur <- max_cur;
      drain_overflow t
    end
    else begin
      if ab0 > t.cur then t.cur <- ab0;
      t.horizon <- ((t.cur lsr (3 * w_bits)) + 1) lsl (3 * w_bits);
      pull t;
      move_current t
    end
  end

(* Advance the cursor one step towards the next event; [false] when the
   whole wheel is empty. Empty levels are skipped by jumping straight to
   the next cascade boundary of the level above — every such jump still
   lands exactly on all intermediate cascade boundaries, so no
   redistribution is missed. *)
let[@ocube.zero_alloc] advance t =
  if t.level_live.(0) + t.level_live.(1) + t.level_live.(2) > 0 then begin
    let next =
      if t.level_live.(0) > 0 then t.cur + 1
      else if t.level_live.(1) > 0 then ((t.cur lsr w_bits) + 1) lsl w_bits
      else ((t.cur lsr (2 * w_bits)) + 1) lsl (2 * w_bits)
    in
    t.cur <- next;
    if next land (span2 - 1) = 0 then begin
      t.horizon <- next + span2;
      pull t
    end;
    if next land (span1 - 1) = 0 && t.level_live.(2) > 0 then
      cascade t 2 ((next lsr (2 * w_bits)) land w_mask);
    if next land (span0 - 1) = 0 && t.level_live.(1) > 0 then
      cascade t 1 ((next lsr w_bits) land w_mask);
    move_current t;
    true
  end
  else if overflow_head t <> Arena.no_slot then begin
    jump t;
    true
  end
  else false

(* The earlier of the run head and the near-heap top. The cursor only
   advances once both are drained. *)
let[@ocube.zero_alloc] rec pop t =
  let r = t.run in
  let h = Arena.Slot_heap.peek t.near in
  if r = Arena.no_slot && h = Arena.no_slot then
    if advance t then pop t else Arena.no_slot
  else begin
    let s =
      if r <> Arena.no_slot && (h = Arena.no_slot || Arena.before t.arena r h)
      then begin
        t.run <- Arena.next t.arena r;
        r
      end
      else Arena.Slot_heap.pop t.near
    in
    if Arena.is_tombstone t.arena s then begin
      Arena.release t.arena s;
      pop t
    end
    else s
  end
