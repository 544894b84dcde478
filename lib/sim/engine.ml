(* Discrete-event engine over packed arena slots.

   Events live in an {!Arena} — parallel flat arrays, no per-event heap
   record, no captured closure on the packed path — and are ordered by
   the global [(time, seq)] key. Two interchangeable queue disciplines
   sit behind the same interface:

   - [Wheel] (default): hashed hierarchical timing wheel, O(1)
     schedule/fire for the bounded-delay events that dominate
     simulation, overflow heap for the far future. The tick being
     drained is a sorted run plus a near-heap of late arrivals, so a
     constant-delay wave of thousands of same-tick messages also costs
     O(1) per event.
   - [Heap]: the classic binary heap, kept as the determinism oracle.

   Both pull slots from the same arena, so sequence numbers — and hence
   the fire order — are identical by construction; fuzz-campaign
   checksums verify the parity end to end.

   Dispatch is class-based: class 0 calls the slot's stored thunk (the
   general [schedule] path), classes registered with [register_class]
   receive the slot's two int payload words — the network's hot
   delivery path schedules those without allocating a closure.

   A packed event can grow into a run ([extend]): while it is the most
   recently scheduled event and nothing has fired since, each extension
   appends a member with payload [(a, b + i)] and the very [(time, seq)]
   key a separate [schedule_packed] would have drawn. No other event can
   hold a key between two members, so firing the run member by member
   (each one a step) is the order the separate events would have fired
   in. The run being fired is held in [cur], outside the queue: every
   event scheduled meanwhile has a later key. *)

type timer_id = int

type class_id = int

type sched =
  | Heap
  | Wheel

let default_sched = ref Wheel

let set_default_scheduler s = default_sched := s

let default_scheduler () = !default_sched

let sched_to_string = function
  | Heap -> "heap"
  | Wheel -> "wheel"

let sched_of_string = function
  | "heap" -> Some Heap
  | "wheel" -> Some Wheel
  | _ -> None

type queue =
  | Qheap of Arena.Slot_heap.heap
  | Qwheel of Wheel.t

type hook_id = int

type t = {
  (* One-element floatarray, not a mutable float field: stores into a
     float field of a mixed record box a fresh float every time, and the
     clock is written on every fired event. *)
  clock : floatarray;
  arena : Arena.t;
  queue : queue;
  sched : sched;
  (* Class 0 is the closure class; the array slot for it is never
     called. Registered handlers receive the event's payload words. *)
  mutable classes : (int -> int -> unit) array;
  mutable n_classes : int;
  (* Registration-ordered: observers (metrics, oracles) must fire in a
     deterministic order. The list is tiny (0-2 hooks), so the per-step
     cost is one match on the common empty case. *)
  mutable hooks : (hook_id * (unit -> unit)) list;
  mutable next_hook : int;
  mutable primary_hook : hook_id option;
  (* Id of the most recently scheduled packed event while no event has
     fired since and it was not cancelled: the one event [extend] may
     grow. [no_run] otherwise. *)
  mutable open_run : timer_id;
  (* Slot of a run fired part-way: its head member is the next event. *)
  mutable cur : int;
}

let no_run = -1

let no_timer = no_run

let closure_class : class_id = 0

let unreachable_class (_ : int) (_ : int) = ()

let create ?sched ?(tick = 0.25) () =
  let sched =
    match sched with
    | Some s -> s
    | None -> !default_sched
  in
  let arena = Arena.create () in
  let queue =
    match sched with
    | Heap -> Qheap (Arena.Slot_heap.create arena)
    | Wheel -> Qwheel (Wheel.create ~arena ~tick)
  in
  {
    clock = Float.Array.make 1 0.0;
    arena;
    queue;
    sched;
    classes = Array.make 4 unreachable_class;
    n_classes = 1;
    hooks = [];
    next_hook = 0;
    primary_hook = None;
    open_run = no_run;
    cur = Arena.no_slot;
  }

let scheduler t = t.sched

let register_class t handler =
  let id = t.n_classes in
  if id = Array.length t.classes then begin
    let n = Array.make (2 * id) unreachable_class in
    Array.blit t.classes 0 n 0 id;
    t.classes <- n
  end;
  t.classes.(id) <- handler;
  t.n_classes <- id + 1;
  id

let add_step_hook t hook =
  let id = t.next_hook in
  t.next_hook <- id + 1;
  t.hooks <- t.hooks @ [ (id, hook) ];
  id

let remove_step_hook t id =
  t.hooks <- List.filter (fun (i, _) -> not (Int.equal i id)) t.hooks

let set_step_hook t hook =
  (match t.primary_hook with
  | Some id -> remove_step_hook t id
  | None -> ());
  t.primary_hook <- Some (add_step_hook t hook)

let clear_step_hook t =
  match t.primary_hook with
  | Some id ->
    remove_step_hook t id;
    t.primary_hook <- None
  | None -> ()

let run_hook t =
  match t.hooks with
  | [] -> ()
  | hooks -> List.iter (fun (_, hook) -> hook ()) hooks

let now t = Float.Array.get t.clock 0

let[@ocube.zero_alloc] enqueue t s =
  match t.queue with
  | Qheap h -> Arena.Slot_heap.push h s
  | Qwheel w -> Wheel.insert w s

let schedule_at t ~time action =
  if not (Float.is_finite time) then
    invalid_arg "Engine.schedule_at: non-finite time";
  if time < now t then invalid_arg "Engine.schedule_at: time in the past";
  let s = Arena.alloc t.arena ~kind:closure_class ~a:0 ~b:0 action in
  Arena.set_time t.arena s time;
  enqueue t s;
  t.open_run <- no_run;
  Arena.id_of t.arena s

let schedule t ~delay action =
  if not (Float.is_finite delay) || delay < 0.0 then
    invalid_arg "Engine.schedule: negative or non-finite delay";
  schedule_at t ~time:(now t +. delay) action

let[@ocube.zero_alloc] schedule_packed t ~delay ~cls ~a ~b =
  if not (Float.is_finite delay) || delay < 0.0 then
    invalid_arg "Engine.schedule: negative or non-finite delay";
  if cls <= 0 || cls >= t.n_classes then
    invalid_arg "Engine.schedule_packed: unregistered class";
  let s = Arena.alloc t.arena ~kind:cls ~a ~b Arena.dummy_thunk in
  (* Store through the backing array: the sum stays in a register and
     the packed path allocates nothing (see {!Arena.times}). *)
  Float.Array.set (Arena.times t.arena) s (Float.Array.get t.clock 0 +. delay);
  enqueue t s;
  let id = Arena.id_of t.arena s in
  t.open_run <- id;
  id

let[@ocube.zero_alloc] extend t id =
  if (not (Int.equal id no_run)) && Int.equal id t.open_run then begin
    Arena.extend t.arena (Arena.slot_of_id id);
    true
  end
  else false

let[@ocube.zero_alloc] cancel t id =
  if Int.equal id t.open_run then t.open_run <- no_run;
  ignore (Arena.cancel t.arena id)

let pending t = Arena.live t.arena

let quiescent t = Arena.live t.arena = 0

(* Pop the next live slot, reclaiming tombstones as they surface. The
   wheel does its own tombstone filtering internally. *)
let[@ocube.zero_alloc] rec heap_pop_live t h =
  let s = Arena.Slot_heap.pop h in
  if s <> Arena.no_slot && Arena.is_tombstone t.arena s then begin
    Arena.release t.arena s;
    heap_pop_live t h
  end
  else s

let[@ocube.zero_alloc] pop_queue t =
  match t.queue with
  | Qwheel w -> Wheel.pop w
  | Qheap h -> heap_pop_live t h

(* The slot whose head member fires next: a run fired part-way comes
   before anything in the queue (see the header), unless it was
   cancelled meanwhile. *)
let[@ocube.zero_alloc] next_live t =
  let c = t.cur in
  if c = Arena.no_slot then pop_queue t
  else if Arena.is_tombstone t.arena c then begin
    Arena.release t.arena c;
    t.cur <- Arena.no_slot;
    pop_queue t
  end
  else c

(* Advance the clock and dispatch the head member of a slot. The slot is
   released when its last member is taken, before the handler runs: the
   handler may schedule new events (which recycle it immediately — the
   arena stays as small as the peak live count) and a [cancel] of the
   fired id inside the handler is a harmless stale-id no-op. A run with
   members left stays in [cur]. Any fire closes the open run. *)
let[@ocube.zero_alloc] fire t s =
  t.open_run <- no_run;
  Float.Array.set t.clock 0 (Float.Array.get (Arena.times t.arena) s);
  let kind = Arena.kind t.arena s in
  let a = Arena.payload_a t.arena s in
  let b = Arena.payload_b t.arena s in
  let f =
    (Arena.thunk t.arena s)
    [@ocube.alloc_ok
      (* flat array read; the arrow in the result type is the stored
         thunk itself, not an un-applied parameter *)]
  in
  if Arena.members t.arena s > 1 then begin
    Arena.take_member t.arena s;
    t.cur <- s
  end
  else begin
    t.cur <- Arena.no_slot;
    Arena.release t.arena s
  end;
  (if Int.equal kind closure_class then f () else t.classes.(kind) a b)
  [@ocube.alloc_ok
    (* dynamic dispatch into the event's own handler: the packed-path
       class handlers are proven zero-alloc where they are defined *)]

let step t =
  let s = next_live t in
  if s = Arena.no_slot then false
  else begin
    fire t s;
    run_hook t;
    true
  end

let run ?(until = infinity) ?(max_steps = max_int) t =
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < max_steps do
    let s = next_live t in
    if s = Arena.no_slot then continue := false
    else if Float.Array.get (Arena.times t.arena) s > until then begin
      (* Put it back: the horizon was reached. [Wheel.insert] re-buckets
         by the event's time, so a far-future event does not pollute the
         wheel's current tick. A run fired part-way goes back too: its
         key is its head member's, and the clock is about to move back
         to [until], below it. *)
      if s = t.cur then t.cur <- Arena.no_slot;
      enqueue t s;
      Float.Array.set t.clock 0 until;
      continue := false
    end
    else begin
      fire t s;
      run_hook t;
      incr steps
    end
  done
