(* The timing wheel checked against the heap oracle.

   The engine's determinism contract says both queue disciplines fire
   events in the identical global (time, seq) order. The tests here
   attack the places where the wheel's bucketing could break that:
   events landing exactly on L0/L1/L2 span boundaries, cascades,
   overflow pulls, cancellation at every level, re-entrant scheduling
   from handlers, the degenerate far-future mode, and [run ~until]
   push-back. A qcheck property drives randomized schedule/cancel/nested
   scripts through both schedulers and demands bit-identical fire logs,
   and a small fuzz campaign does the same end-to-end through the full
   protocol stack. *)

module Engine = Ocube_sim.Engine
module Fuzz = Ocube_check.Fuzz

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* Default wheel tick is 0.25; levels are 256 buckets wide, so the level
   spans in virtual time are 64.0 (L0), 16384.0 (L1) and 4194304.0 (L2).
   Delays beyond the L2 span land in the overflow heap. *)
let l0_span = 64.0

let l1_span = 16384.0

let l2_span = 4194304.0

(* Boundary-heavy delays: one tick on either side of every level span,
   plus ties and zero. All exactly representable, so logs compare
   bit-identically. *)
let boundary_delays =
  [
    0.0;
    0.25;
    0.25;
    0.5;
    l0_span -. 0.25;
    l0_span;
    l0_span;
    l0_span +. 0.25;
    l1_span -. 0.25;
    l1_span;
    l1_span +. 0.25;
    l2_span -. 0.25;
    l2_span;
    l2_span +. 0.25;
    (2.0 *. l2_span) +. 3.25;
  ]

(* --- fire-order parity ----------------------------------------------------- *)

let run_delays sched delays =
  let e = Engine.create ~sched () in
  let b = Buffer.create 256 in
  List.iteri
    (fun i d ->
      ignore
        (Engine.schedule e ~delay:d (fun () ->
             Printf.bprintf b "%d@%h;" i (Engine.now e))))
    delays;
  Engine.run e;
  checki "all fired" 0 (Engine.pending e);
  Buffer.contents b

let test_boundary_fire_order () =
  checks "identical fire log at level boundaries"
    (run_delays Engine.Heap boundary_delays)
    (run_delays Engine.Wheel boundary_delays)

(* Re-entrant scheduling: handlers scheduling at zero delay (same
   instant, must still respect seq FIFO) and across the next boundary. *)
let run_nested sched =
  let e = Engine.create ~sched () in
  let b = Buffer.create 256 in
  let log tag = Printf.bprintf b "%s@%h;" tag (Engine.now e) in
  ignore
    (Engine.schedule e ~delay:63.75 (fun () ->
         log "outer";
         (* same instant: fires after already-queued same-time events *)
         ignore (Engine.schedule e ~delay:0.0 (fun () -> log "nested0"));
         (* one tick ahead: crosses the L0 bucket being drained *)
         ignore (Engine.schedule e ~delay:0.25 (fun () -> log "nested1"));
         ignore (Engine.schedule e ~delay:l1_span (fun () -> log "nestedL1"))));
  ignore (Engine.schedule e ~delay:63.75 (fun () -> log "tie"));
  ignore (Engine.schedule e ~delay:l0_span (fun () -> log "l0span"));
  Engine.run e;
  Buffer.contents b

let test_nested_fire_order () =
  checks "identical fire log with re-entrant schedules"
    (run_nested Engine.Heap) (run_nested Engine.Wheel)

(* Far-future degenerate mode: times so large the wheel parks and serves
   everything from its exact near-heap. Order must still match. *)
let run_astronomical sched =
  let e = Engine.create ~sched () in
  let b = Buffer.create 128 in
  let log tag = Printf.bprintf b "%s;" tag in
  ignore (Engine.schedule_at e ~time:1e300 (fun () -> log "huge-a"));
  ignore (Engine.schedule_at e ~time:1e300 (fun () -> log "huge-b"));
  ignore
    (Engine.schedule_at e ~time:1e299 (fun () ->
         log "first";
         ignore (Engine.schedule_at e ~time:1e301 (fun () -> log "later"))));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log "near"));
  Engine.run e;
  Buffer.contents b

let test_astronomical_times () =
  let want = "near;first;huge-a;huge-b;later;" in
  checks "heap order" want (run_astronomical Engine.Heap);
  checks "wheel order" want (run_astronomical Engine.Wheel)

(* --- cancellation ---------------------------------------------------------- *)

(* Cancel one event at every wheel level and in the overflow; only the
   survivors fire, and [pending] is exact throughout. *)
let test_cancel_every_level () =
  List.iter
    (fun sched ->
      let e = Engine.create ~sched () in
      let fired = ref [] in
      let mk d = Engine.schedule e ~delay:d (fun () -> fired := d :: !fired) in
      let near = mk 0.25 in
      let l0 = mk 32.0 in
      let l1 = mk 1000.0 in
      let l2 = mk 100000.0 in
      let ovf = mk (3.0 *. l2_span) in
      let keep0 = 33.0 and keep1 = 1001.0 in
      ignore (mk keep0);
      ignore (mk keep1);
      checki "pending before cancels" 7 (Engine.pending e);
      List.iter (Engine.cancel e) [ near; l0; l1; l2; ovf ];
      checki "pending after cancels" 2 (Engine.pending e);
      (* double-cancel is a no-op *)
      Engine.cancel e l1;
      checki "pending after double cancel" 2 (Engine.pending e);
      Engine.run e;
      checki "pending after run" 0 (Engine.pending e);
      checkb "survivors fired in order" true
        (match List.rev !fired with
        | [ a; b ] -> Float.equal a keep0 && Float.equal b keep1
        | _ -> false))
    [ Engine.Heap; Engine.Wheel ]

(* A stale id must stay dead after its arena slot is reused. *)
let test_stale_id_after_reuse () =
  List.iter
    (fun sched ->
      let e = Engine.create ~sched () in
      let n = ref 0 in
      let old_id = Engine.schedule e ~delay:1.0 (fun () -> incr n) in
      Engine.cancel e old_id;
      (* the freed slot is recycled by the next schedule *)
      let fresh = Engine.schedule e ~delay:2.0 (fun () -> incr n) in
      Engine.cancel e old_id;
      (* must not kill the recycled slot *)
      checki "recycled event still pending" 1 (Engine.pending e);
      Engine.run e;
      checki "recycled event fired" 1 !n;
      Engine.cancel e fresh (* post-fire cancel is a no-op *))
    [ Engine.Heap; Engine.Wheel ]

(* Cancel-then-reschedule exactly on bucket boundaries: the replacement
   must fire at its own time, never the cancelled one's. *)
let test_reschedule_at_boundaries () =
  List.iter
    (fun sched ->
      List.iter
        (fun d ->
          let e = Engine.create ~sched () in
          let fired = ref nan in
          let id = Engine.schedule e ~delay:d (fun () -> fired := -1.0) in
          Engine.cancel e id;
          ignore
            (Engine.schedule e ~delay:(d +. 0.25) (fun () ->
                 fired := Engine.now e));
          Engine.run e;
          checkb
            (Printf.sprintf "rescheduled fire time for delay %g" d)
            true
            (Float.equal !fired (d +. 0.25)))
        [ 0.25; l0_span; l1_span; l2_span ])
    [ Engine.Heap; Engine.Wheel ]

(* --- run ~until push-back -------------------------------------------------- *)

let test_run_until_pushback () =
  List.iter
    (fun sched ->
      let e = Engine.create ~sched () in
      let b = Buffer.create 64 in
      let log tag = Printf.bprintf b "%s@%g;" tag (Engine.now e) in
      ignore (Engine.schedule e ~delay:10.0 (fun () -> log "early"));
      ignore (Engine.schedule e ~delay:1000.0 (fun () -> log "far"));
      Engine.run ~until:50.0 e;
      checkb "clock parked at until" true (Float.equal (Engine.now e) 50.0);
      checki "far event still pending" 1 (Engine.pending e);
      (* a nearer event scheduled after the pause must overtake the
         pushed-back one *)
      ignore (Engine.schedule e ~delay:10.0 (fun () -> log "mid"));
      Engine.run e;
      checks "order across the pause" "early@10;mid@60;far@1000;"
        (Buffer.contents b))
    [ Engine.Heap; Engine.Wheel ]

(* --- packed events --------------------------------------------------------- *)

let test_packed_parity () =
  let run sched =
    let e = Engine.create ~sched () in
    let b = Buffer.create 128 in
    let cls =
      Engine.register_class e (fun a x -> Printf.bprintf b "%d:%d;" a x)
    in
    List.iteri
      (fun i d -> ignore (Engine.schedule_packed e ~delay:d ~cls ~a:i ~b:(2 * i)))
      boundary_delays;
    Engine.run e;
    Buffer.contents b
  in
  checks "identical packed fire log" (run Engine.Heap) (run Engine.Wheel)

(* --- one-tick fan-out waves ------------------------------------------------- *)

(* A message wave under constant delay lands in one wheel tick, which
   the wheel drains as a sorted run plus a near-heap of late arrivals.
   Each scenario below hits one way the run and the near-heap meet, and
   must leave the same fire log under both schedulers. Events are
   packed; a fired event logs its payload word and fire time. *)

let wave = 65_536

type fanout = {
  e : Engine.t;
  log : Buffer.t;
  cls : Engine.class_id;
  ids : Engine.timer_id option array;
}

let fanout_env sched =
  let e = Engine.create ~sched () in
  let log = Buffer.create (16 * wave) in
  let cls =
    Engine.register_class e (fun a _ ->
        Printf.bprintf log "%d@%h;" a (Engine.now e))
  in
  { e; log; cls; ids = Array.make wave None }

let sched_wave f ~delay ~from ~count =
  for a = from to from + count - 1 do
    f.ids.(a) <- Some (Engine.schedule_packed f.e ~delay ~cls:f.cls ~a ~b:0)
  done

let cancel_wave f a = Option.iter (Engine.cancel f.e) f.ids.(a)

let check_fanout name scenario =
  let run sched =
    let f = fanout_env sched in
    scenario f;
    Engine.run f.e;
    checki "drained" 0 (Engine.pending f.e);
    Buffer.contents f.log
  in
  let wheel = run Engine.Wheel in
  checks name (run Engine.Heap) wheel;
  wheel

(* 2^16 events at one identical time: the run is the whole wave, in
   schedule order. *)
let test_fanout_same_time () =
  let log =
    check_fanout "same-time wave" (fun f ->
        sched_wave f ~delay:3.0 ~from:0 ~count:wave)
  in
  let want = Buffer.create (16 * wave) in
  for a = 0 to wave - 1 do
    Printf.bprintf want "%d@%h;" a 3.0
  done;
  checks "FIFO among equal times" (Buffer.contents want) log

(* Part of the wave is scheduled more than a level-0 span ahead (level
   1), the rest from within the span (level 0), all for tick 256: the
   cascade re-links the level-1 part into the bucket behind the level-0
   part, so the bucket is unsorted when it becomes current. Alternating
   fire times inside the tick break both parts into many short runs, so
   the sort needs several merge passes. *)
let test_fanout_cascaded () =
  ignore
  @@ check_fanout "cascaded wave" (fun f ->
         let half = wave / 2 in
         for a = 0 to half - 1 do
           let delay = if a land 1 = 0 then l0_span else l0_span +. 0.125 in
           sched_wave f ~delay ~from:a ~count:1
         done;
         ignore
           (Engine.schedule f.e ~delay:(l0_span -. 10.0) (fun () ->
                for a = half to wave - 1 do
                  let delay = if a mod 3 = 0 then 10.0 else 10.0625 in
                  sched_wave f ~delay ~from:a ~count:1
                done)))

(* Handlers in the middle of the wave schedule zero-delay events (same
   time, later seq) and events later in the same tick: late arrivals
   that the near-heap must interleave with the run, whose second half
   fires later in the tick. *)
let test_fanout_zero_delay () =
  ignore
  @@ check_fanout "zero-delay schedules mid-wave" (fun f ->
         let spawn =
           Engine.register_class f.e (fun a _ ->
               Printf.bprintf f.log "s%d@%h;" a (Engine.now f.e);
               ignore
                 (Engine.schedule_packed f.e ~delay:0.0 ~cls:f.cls
                    ~a:(wave + a) ~b:0);
               ignore
                 (Engine.schedule_packed f.e ~delay:0.0625 ~cls:f.cls
                    ~a:((2 * wave) + a) ~b:0))
         in
         for a = 0 to wave - 1 do
           let delay = if a < wave / 2 then 3.0 else 3.125 in
           if a mod 997 = 0 then
             ignore (Engine.schedule_packed f.e ~delay ~cls:spawn ~a ~b:0)
           else sched_wave f ~delay ~from:a ~count:1
         done)

(* Handlers cancel events of the current tick that have not fired yet
   (and some that already have: stale ids are no-ops). *)
let test_fanout_cancels () =
  ignore @@ check_fanout "cancels inside the current tick" (fun f ->
      let canceller =
        Engine.register_class f.e (fun a _ ->
            Printf.bprintf f.log "c%d;" a;
            cancel_wave f ((a + 500) mod wave);
            cancel_wave f ((a + wave - 500) mod wave))
      in
      for a = 0 to wave - 1 do
        if a mod 101 = 0 then
          f.ids.(a) <-
            Some (Engine.schedule_packed f.e ~delay:3.0 ~cls:canceller ~a ~b:0)
        else sched_wave f ~delay:3.0 ~from:a ~count:1
      done;
      (* cancel a slice before the tick starts, too *)
      for a = 1000 to 1099 do
        cancel_wave f a
      done)

(* [run ~until] stops inside the tick: the first event past the horizon
   is pushed back into the tick being drained, then fresh zero-delay
   events join before the run resumes. *)
let test_fanout_until_pushback () =
  ignore @@ check_fanout "run ~until push-back mid-run" (fun f ->
      let half = wave / 2 in
      for a = 0 to half - 1 do
        sched_wave f ~delay:3.0 ~from:(2 * a) ~count:1;
        sched_wave f ~delay:3.125 ~from:((2 * a) + 1) ~count:1
      done;
      Engine.run ~until:3.0 f.e;
      Printf.bprintf f.log "paused@%h;" (Engine.now f.e);
      for a = 0 to 99 do
        ignore
          (Engine.schedule_packed f.e ~delay:0.0 ~cls:f.cls ~a:(wave + a) ~b:0);
        ignore
          (Engine.schedule_packed f.e ~delay:0.0625 ~cls:f.cls
             ~a:(wave + 100 + a) ~b:0)
      done)

module Wave_msg = struct
  type t = Probe of int

  let pp ppf (Probe d) = Format.fprintf ppf "probe(%d)" d

  let categories = [| "probe" |]

  let category_index (Probe _) = 0
end

module Wave_net = Ocube_net.Network.Make (Wave_msg)

(* Steady-state packed schedule/fire must not allocate on the minor heap:
   the whole point of the arena encoding is a closure-free hot path. The
   budget (a tenth of a word per event) only absorbs the measurement's
   own boxed [Gc.minor_words] results. Four shapes: small bursts, a
   2^16-event same-time wave (one sorted run), a cascaded wave whose
   tick mixes level-1 and level-0 halves (an unsorted bucket, merged),
   and a 2^16-member [Net.send] wave (one message run: the send path,
   the join test and every member delivery). *)
let test_packed_zero_alloc () =
  let e = Engine.create ~sched:Engine.Wheel () in
  let acc = ref 0 in
  let cls = Engine.register_class e (fun a b -> acc := !acc + a + b) in
  let ten = 10.0 in
  (* Schedules [a] events [ten] ahead: the level-0 half of a cascade. *)
  let spawn =
    Engine.register_class e (fun n _ ->
        for i = 1 to n do
          ignore (Engine.schedule_packed e ~delay:ten ~cls ~a:i ~b:1)
        done)
  in
  let burst n () =
    for i = 1 to n do
      ignore (Engine.schedule_packed e ~delay:3.0 ~cls ~a:i ~b:1)
    done;
    Engine.run e
  in
  let cascaded () =
    (* The next tick index that is a multiple of 256 and at least one
       level-0 span away: the first half waits in level 1. *)
    let target = (Float.round (Engine.now e /. l0_span) +. 2.0) *. l0_span in
    (* Boxed once here, not once per call: a float kept unboxed in a
       local would be re-boxed at every [schedule_packed]. *)
    let far = Sys.opaque_identity (target -. Engine.now e) in
    let near = Sys.opaque_identity (far -. ten) in
    for i = 1 to wave / 2 do
      ignore (Engine.schedule_packed e ~delay:far ~cls ~a:i ~b:1)
    done;
    ignore (Engine.schedule_packed e ~delay:near ~cls:spawn ~a:(wave / 2) ~b:0);
    Engine.run e
  in
  let per_event name n f =
    (* warm-up grows the arena and the wheel to steady state *)
    f ();
    f ();
    let before = Gc.minor_words () in
    f ();
    let per_event = (Gc.minor_words () -. before) /. float_of_int n in
    checkb
      (Printf.sprintf "allocation-free %s (%.3f words/event)" name per_event)
      true (per_event <= 0.1)
  in
  let net_wave =
    let engine = Engine.create ~sched:Engine.Wheel () in
    let net =
      Wave_net.create ~engine ~rng:(Ocube_sim.Rng.create 1) ~n:(wave + 1)
        ~delay:(Ocube_net.Network.Constant 1.0) ()
    in
    Wave_net.set_default_handler net (fun ~dst ~src:_ _ -> acc := !acc + dst);
    (* one payload for the wave, as the protocols send it *)
    let probe = Wave_msg.Probe 3 in
    fun () ->
      for dst = 1 to wave do
        Wave_net.send net ~src:0 ~dst probe
      done;
      Engine.run engine
  in
  per_event "schedule/fire" 1024 (burst 1024);
  per_event "same-time wave" wave (burst wave);
  per_event "cascaded wave" wave cascaded;
  per_event "Net.send wave" wave net_wave

(* --- qcheck: randomized script parity -------------------------------------- *)

type item = { delay : float; nested : float list; cancel : int option }

(* Delays as small multiples of an eighth keep every sum exactly
   representable; the boundary list salts in the level-span edges. Half
   the draws come from a four-value pool, so most scripts hold exact
   time ties: same-time waves, and nested events landing on queued
   ones. *)
let delay_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun i -> float_of_int i /. 8.0) (int_bound 2048));
        (1, oneofl boundary_delays);
        (3, oneofl [ 0.0; 1.0; 1.125; l0_span ]);
      ])

let script_gen =
  QCheck.Gen.(
    int_range 1 24 >>= fun n ->
    list_size (return n)
      (map3
         (fun delay nested cancel -> { delay; nested; cancel })
         delay_gen
         (list_size (int_bound 3) delay_gen)
         (opt (int_bound (n - 1)))))

let script_print script =
  String.concat " "
    (List.mapi
       (fun i it ->
         Printf.sprintf "%d:{d=%h nested=[%s]%s}" i it.delay
           (String.concat "," (List.map (Printf.sprintf "%h") it.nested))
           (match it.cancel with
           | Some j -> Printf.sprintf " cancel=%d" j
           | None -> ""))
       script)

(* Interpret a script: schedule every item up front, then let each
   firing log itself, spawn its nested events and cancel its victim.
   Everything that could diverge between schedulers — bucketing, ties,
   cascade timing, tombstone handling — funnels into the log. *)
let run_script sched script =
  let items = Array.of_list script in
  let e = Engine.create ~sched () in
  let b = Buffer.create 512 in
  let ids = Array.make (Array.length items) None in
  Array.iteri
    (fun i it ->
      ids.(i) <-
        Some
          (Engine.schedule e ~delay:it.delay (fun () ->
               Printf.bprintf b "%d@%h;" i (Engine.now e);
               List.iteri
                 (fun j d ->
                   ignore
                     (Engine.schedule e ~delay:d (fun () ->
                          Printf.bprintf b "%d.%d@%h;" i j (Engine.now e))))
                 it.nested;
               match it.cancel with
               | Some j -> (
                 match ids.(j) with
                 | Some id -> Engine.cancel e id
                 | None -> ())
               | None -> ())))
    items;
  Engine.run e;
  checki "quiescent after script" 0 (Engine.pending e);
  Buffer.contents b

let qcheck_script_parity =
  QCheck.Test.make ~count:300 ~name:"wheel/heap fire-log parity on scripts"
    (QCheck.make ~print:script_print script_gen)
    (fun script ->
      String.equal (run_script Engine.Heap script)
        (run_script Engine.Wheel script))

(* --- end-to-end: fuzz campaign checksum parity ----------------------------- *)

(* The full protocol stack (all algorithms, faults, delay models) run
   under each scheduler must produce the same in-order digest checksum.
   CI runs the 10k-scenario version of this; here a slice guards the
   property in the default test tier. *)
let test_fuzz_checksum_parity () =
  let run sched =
    Engine.set_default_scheduler sched;
    Fun.protect
      ~finally:(fun () -> Engine.set_default_scheduler Engine.Wheel)
      (fun () -> Fuzz.campaign ~iters:250 ~fuzz_seed:90210 ())
  in
  let w = run Engine.Wheel in
  let h = run Engine.Heap in
  checkb "no wheel failure" true (w.Fuzz.failure = None);
  checkb "no heap failure" true (h.Fuzz.failure = None);
  checki "same scenario count" w.Fuzz.ran h.Fuzz.ran;
  checki "same digest checksum across schedulers" w.Fuzz.checksum
    h.Fuzz.checksum

let suite =
  [
    Alcotest.test_case "boundary fire order" `Quick test_boundary_fire_order;
    Alcotest.test_case "nested fire order" `Quick test_nested_fire_order;
    Alcotest.test_case "astronomical times" `Quick test_astronomical_times;
    Alcotest.test_case "cancel at every level" `Quick test_cancel_every_level;
    Alcotest.test_case "stale id after slot reuse" `Quick
      test_stale_id_after_reuse;
    Alcotest.test_case "reschedule at boundaries" `Quick
      test_reschedule_at_boundaries;
    Alcotest.test_case "run ~until push-back" `Quick test_run_until_pushback;
    Alcotest.test_case "packed fire parity" `Quick test_packed_parity;
    Alcotest.test_case "fan-out: same-time wave" `Quick test_fanout_same_time;
    Alcotest.test_case "fan-out: cascaded wave" `Quick test_fanout_cascaded;
    Alcotest.test_case "fan-out: zero-delay mid-wave" `Quick
      test_fanout_zero_delay;
    Alcotest.test_case "fan-out: cancels in the tick" `Quick test_fanout_cancels;
    Alcotest.test_case "fan-out: run ~until push-back" `Quick
      test_fanout_until_pushback;
    Alcotest.test_case "packed zero-alloc" `Quick test_packed_zero_alloc;
    Alcotest.test_case "fuzz checksum parity" `Quick test_fuzz_checksum_parity;
  ]
  @ [ QCheck_alcotest.to_alcotest ~long:false qcheck_script_parity ]
