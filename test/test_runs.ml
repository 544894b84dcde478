(* Message runs: a fan-out wave scheduled as one engine event.

   [Engine.extend] grows a packed event into a run whose members fire one
   by one, each in the (time, seq) slot a separate event would have had;
   [Network.send] appends to the last run when the message is its next
   member. The tests here hold runs to the behaviour of separate events:
   the same fire order under both schedulers whatever cuts the run
   ([max_steps], [run ~until], [step]), one step hook per member, the
   extension refused whenever it could reorder anything, and per-member
   loss decisions. A qcheck property compares the whole network with the
   per-message reference model in [Ref_net]. *)

module Engine = Ocube_sim.Engine
module Rng = Ocube_sim.Rng
module Network = Ocube_net.Network

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let scheds = [ Engine.Heap; Engine.Wheel ]

let sched_name = Engine.sched_to_string

(* --- engine: runs against separate events ------------------------------------ *)

(* One scenario, built either with runs or with one [schedule_packed] per
   member. Closure events and separate packed events sit before, between
   and after the runs at the same instant; members 12 and 21 schedule
   zero-delay events from inside their run. Every firing logs itself, so
   equal logs mean equal fire order. *)
let scenario ~runs sched =
  let e = Engine.create ~sched () in
  let b = Buffer.create 256 in
  let hooks = ref 0 in
  Engine.set_step_hook e (fun () -> incr hooks);
  let log fmt = Printf.bprintf b fmt in
  let cls = ref None in
  let schedule_run ~delay ~a ~b0 ~k =
    let c = Option.get !cls in
    let id = Engine.schedule_packed e ~delay ~cls:c ~a ~b:b0 in
    for i = 1 to k - 1 do
      if runs then checkb "extend accepted" true (Engine.extend e id)
      else ignore (Engine.schedule_packed e ~delay ~cls:c ~a ~b:(b0 + i))
    done
  in
  cls :=
    Some
      (Engine.register_class e (fun a x ->
           log "%d:%d@%h;" a x (Engine.now e);
           if x = 12 then begin
             ignore (Engine.schedule e ~delay:0.0 (fun () -> log "z12;"));
             schedule_run ~delay:0.0 ~a:9 ~b0:100 ~k:3
           end;
           if x = 21 then
             ignore
               (Engine.schedule_packed e ~delay:1.0 ~cls:(Option.get !cls)
                  ~a:8 ~b:0)));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log "x;"));
  schedule_run ~delay:2.0 ~a:1 ~b0:10 ~k:6;
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log "y;"));
  schedule_run ~delay:1.0 ~a:2 ~b0:20 ~k:4;
  schedule_run ~delay:2.0 ~a:3 ~b0:30 ~k:2;
  ignore (Engine.schedule e ~delay:3.0 (fun () -> log "w;"));
  (e, b, hooks)

let events_in_scenario = 1 + 6 + 1 + 4 + 2 + 1 + 1 + 3 + 1

(* [drive] runs the engine to empty in some pattern of cuts. *)
let fire_log ~runs sched drive =
  let e, b, hooks = scenario ~runs sched in
  drive e;
  checki "drained" 0 (Engine.pending e);
  checki "one step hook per event" events_in_scenario !hooks;
  Buffer.contents b

let drives =
  [
    ("run", fun e -> Engine.run e);
    ( "max_steps 1",
      fun e ->
        while not (Engine.quiescent e) do
          Engine.run ~max_steps:1 e
        done );
    ( "max_steps 3",
      fun e ->
        while not (Engine.quiescent e) do
          Engine.run ~max_steps:3 e
        done );
    ( "step",
      fun e ->
        while Engine.step e do
          ()
        done );
    ( "until",
      fun e ->
        Engine.run ~until:0.5 e;
        Engine.run ~until:1.0 e;
        Engine.run ~until:1.5 e;
        Engine.run ~until:2.0 e;
        Engine.run e );
  ]

let test_runs_match_separate_events () =
  List.iter
    (fun sched ->
      let reference = fire_log ~runs:false Engine.Heap (fun e -> Engine.run e) in
      List.iter
        (fun (name, drive) ->
          checks
            (Printf.sprintf "%s, %s: runs fire like separate events"
               (sched_name sched) name)
            reference
            (fire_log ~runs:true sched drive))
        drives)
    scheds

(* A run counts as one pending event; a cut leaves it pending with its
   members left, and the next step takes the next member. *)
let test_pending_and_cut () =
  List.iter
    (fun sched ->
      let e = Engine.create ~sched () in
      let got = ref [] in
      let cls = Engine.register_class e (fun a x -> got := (a, x) :: !got) in
      let id = Engine.schedule_packed e ~delay:1.0 ~cls ~a:5 ~b:0 in
      for _ = 1 to 4 do
        ignore (Engine.extend e id)
      done;
      checki "a run is one pending event" 1 (Engine.pending e);
      Engine.run ~max_steps:2 e;
      checki "cut mid-run: still pending" 1 (Engine.pending e);
      checkb "stepped a member" true (Engine.step e);
      Alcotest.(check (list (pair int int)))
        "members in order" [ (5, 0); (5, 1); (5, 2) ] (List.rev !got);
      Engine.run ~until:0.5 e;
      Alcotest.(check (float 0.0)) "until below the run: clock moved back" 0.5
        (Engine.now e);
      checki "pushed back, still pending" 1 (Engine.pending e);
      Engine.run e;
      Alcotest.(check (list (pair int int)))
        "the rest after a push-back"
        [ (5, 0); (5, 1); (5, 2); (5, 3); (5, 4) ]
        (List.rev !got);
      checkb "quiescent" true (Engine.quiescent e))
    scheds

(* A run cut part-way and then cancelled loses the members it has left. *)
let test_cancel_mid_run () =
  List.iter
    (fun sched ->
      let e = Engine.create ~sched () in
      let got = ref 0 in
      let cls = Engine.register_class e (fun _ _ -> incr got) in
      let id = Engine.schedule_packed e ~delay:1.0 ~cls ~a:0 ~b:0 in
      for _ = 1 to 9 do
        ignore (Engine.extend e id)
      done;
      Engine.run ~max_steps:4 e;
      Engine.cancel e id;
      checki "cancelled: nothing pending" 0 (Engine.pending e);
      Engine.run e;
      checki "only the members before the cancel fired" 4 !got)
    scheds

let test_extend_refused () =
  List.iter
    (fun sched ->
      let e = Engine.create ~sched () in
      let cls = Engine.register_class e (fun _ _ -> ()) in
      let packed d = Engine.schedule_packed e ~delay:d ~cls ~a:0 ~b:0 in
      checkb "no_timer" false (Engine.extend e Engine.no_timer);
      (* after any fire *)
      ignore (packed 1.0);
      let r = packed 5.0 in
      checkb "open run extends" true (Engine.extend e r);
      ignore (Engine.step e);
      checkb "refused after a fire" false (Engine.extend e r);
      (* after any other schedule, packed or closure *)
      let r = packed 5.0 in
      let r2 = packed 5.0 in
      checkb "refused after a packed schedule" false (Engine.extend e r);
      checkb "the newer one extends" true (Engine.extend e r2);
      ignore (Engine.schedule e ~delay:5.0 (fun () -> ()));
      checkb "refused after a closure schedule" false (Engine.extend e r2);
      (* closure events never extend *)
      let c = Engine.schedule e ~delay:5.0 (fun () -> ()) in
      checkb "closure event refused" false (Engine.extend e c);
      (* cancelled *)
      let r = packed 5.0 in
      Engine.cancel e r;
      checkb "refused after its cancel" false (Engine.extend e r);
      Engine.run e;
      checkb "drained" true (Engine.quiescent e))
    scheds

(* --- network ---------------------------------------------------------------- *)

module P = struct
  type t = Ping of int | Pong

  let pp ppf = function
    | Ping k -> Format.fprintf ppf "ping(%d)" k
    | Pong -> Format.pp_print_string ppf "pong"

  let categories = [| "ping"; "pong" |]

  let category_index = function Ping _ -> 0 | Pong -> 1
end

module Net = Network.Make (P)
module Ref = Ref_net.Make (P)

let make_net ?(sched = Engine.Wheel) ?(n = 8)
    ?(delay = Network.Constant 1.0) ?(seed = 3) () =
  let engine = Engine.create ~sched () in
  let net = Net.create ~engine ~rng:(Rng.create seed) ~n ~delay () in
  (engine, net)

let broadcast net ~src ~lo ~hi payload =
  for dst = lo to hi do
    Net.send net ~src ~dst payload
  done

(* Members whose destination fails, or fails and recovers, in flight are
   dropped alone; a node down at send time that recovers in flight still
   loses its member; the drop handler sees each. *)
let test_member_drops () =
  List.iter
    (fun sched ->
      let engine, net = make_net ~sched ~n:8 () in
      let got = ref [] and lost = ref [] in
      Net.set_default_handler net (fun ~dst ~src:_ _ -> got := dst :: !got);
      Net.set_drop_handler net (fun ~dst _ -> lost := dst :: !lost);
      Net.fail net 6;
      broadcast net ~src:0 ~lo:1 ~hi:7 (P.Ping 1);
      checki "one run" 1 (Engine.pending engine);
      Net.fail net 3;
      Net.fail net 5;
      Net.recover net 5;
      Net.recover net 6;
      Engine.run engine;
      Alcotest.(check (list int)) "delivered" [ 1; 2; 4; 7 ] (List.rev !got);
      Alcotest.(check (list int)) "dropped, in order" [ 3; 5; 6 ]
        (List.rev !lost);
      checki "delivered_total" 4 (Net.delivered_total net);
      checki "dropped_total" 3 (Net.dropped_total net);
      checki "sent_total" 7 (Net.sent_total net))
    scheds

let test_join_conditions () =
  let engine, net = make_net ~n:16 () in
  Net.set_default_handler net (fun ~dst:_ ~src:_ _ -> ());
  let ping = P.Ping 0 in
  broadcast net ~src:0 ~lo:1 ~hi:4 ping;
  checki "consecutive, same payload: one run" 1 (Engine.pending engine);
  Net.send net ~src:0 ~dst:6 ping;
  checki "a gap in dst starts a run" 2 (Engine.pending engine);
  (* A literal [P.Ping 0] would be the same static constant as [ping]. *)
  Net.send net ~src:0 ~dst:7 (P.Ping (Sys.opaque_identity 0));
  checki "an equal but distinct payload starts a run" 3 (Engine.pending engine);
  Net.send net ~src:1 ~dst:8 (P.Ping 0);
  checki "another source starts a run" 4 (Engine.pending engine);
  let p = P.Ping 9 in
  Net.send net ~src:1 ~dst:9 p;
  Net.fail net 15;
  Net.send net ~src:1 ~dst:10 p;
  checki "a fail starts a run" 6 (Engine.pending engine);
  Net.recover net 15;
  Net.send net ~src:1 ~dst:11 p;
  checki "a recover starts a run" 7 (Engine.pending engine);
  Net.send net ~src:1 ~dst:12 p;
  checki "joined again" 7 (Engine.pending engine);
  ignore (Net.set_timer net ~node:2 ~delay:1.0 (fun () -> ()));
  Net.send net ~src:1 ~dst:13 p;
  checki "a timer in between starts a run" 9 (Engine.pending engine);
  Engine.run engine;
  checki "all delivered" 12 (Net.delivered_total net)

(* The run's shared slot is recycled only when its last member is taken:
   a handler that sends during the wave must not overwrite it. *)
let test_slot_outlives_members () =
  let engine, net = make_net ~n:8 () in
  let got = ref [] in
  Net.set_default_handler net (fun ~dst ~src payload ->
      got := (dst, src, payload) :: !got;
      if dst = 1 then Net.send net ~src:1 ~dst:0 (P.Ping 77));
  broadcast net ~src:0 ~lo:1 ~hi:4 (P.Ping 5);
  Engine.run engine;
  let wave =
    List.filter (fun (dst, _, _) -> dst <> 0) (List.rev !got)
  in
  checkb "every member carries the run's source and payload" true
    (List.for_all
       (fun (_, src, payload) ->
         src = 0 && match payload with P.Ping 5 -> true | _ -> false)
       wave);
  checki "four members" 4 (List.length wave);
  checkb "the reply arrived" true
    (List.exists (fun (dst, src, _) -> dst = 0 && src = 1) !got)

(* --- network against the per-message reference ------------------------------- *)

type action =
  | Bcast of { src : int; lo : int; len : int; k : int; fresh : bool }
  | Bcast_toggle of { src : int; lo : int; len : int; victim : int; after : int }
      (** a shared-payload broadcast that fails [victim] (or recovers it,
          if down) after its first [after] sends *)
  | Send of { src : int; dst : int; k : int }
  | Timer of { node : int; q : int }
  | Fail of int
  | Recover of int

type script = {
  sched : Engine.sched;
  delay : Network.delay_model;
  n : int;
  chunk : int;  (* [run ~max_steps] per call; 0 = one [run] *)
  steps : (int * action) list;  (* (time in eighths, action) *)
}

(* Both networks expose the same few operations to the script. *)
type ops = {
  send : src:int -> dst:int -> P.t -> unit;
  timer : node:int -> delay:float -> (unit -> unit) -> unit;
  fail : int -> unit;
  recover : int -> unit;
  is_failed : int -> bool;
  counters : unit -> int * int * int;
}

(* Run a script over one network: schedule every action up front, and
   let deliveries react (a [Ping k] with [k mod 4 = 0] is answered with a
   [Pong]; one with [k mod 4 = 1] is relayed as a [Pong] wave to every
   other node, a run scheduled from inside a run). *)
let play sc ~make =
  let e = Engine.create ~sched:sc.sched () in
  let rng = Rng.create 17 in
  let ops, install = make e rng in
  let b = Buffer.create 1024 in
  let pp = function P.Ping k -> Printf.sprintf "ping%d" k | P.Pong -> "pong" in
  install
    (fun ~dst ~src payload ->
      Printf.bprintf b "R%d<%d %s@%h;" dst src (pp payload) (Engine.now e);
      match payload with
      | P.Ping k when k mod 4 = 0 -> ops.send ~src:dst ~dst:src P.Pong
      | P.Ping k when k mod 4 = 1 ->
        for d = 0 to sc.n - 1 do
          if d <> dst then ops.send ~src:dst ~dst:d P.Pong
        done
      | P.Ping _ | P.Pong -> ())
    (fun ~dst payload ->
      Printf.bprintf b "D%d %s@%h;" dst (pp payload) (Engine.now e));
  List.iter
    (fun (at, action) ->
      ignore
        (Engine.schedule_at e ~time:(float_of_int at /. 8.0) (fun () ->
             match action with
             | Bcast { src; lo; len; k; fresh } ->
               if not (ops.is_failed src) then begin
                 let shared = P.Ping k in
                 for d = lo to min (sc.n - 1) (lo + len - 1) do
                   ops.send ~src ~dst:d (if fresh then P.Ping k else shared)
                 done
               end
             | Bcast_toggle { src; lo; len; victim; after } ->
               if not (ops.is_failed src) then begin
                 let shared = P.Ping 2 in
                 for d = lo to min (sc.n - 1) (lo + len - 1) do
                   if d - lo = after && victim <> src then
                     if ops.is_failed victim then begin
                       ops.recover victim;
                       Printf.bprintf b "U%d;" victim
                     end
                     else begin
                       ops.fail victim;
                       Printf.bprintf b "F%d;" victim
                     end;
                   ops.send ~src ~dst:d shared
                 done
               end
             | Send { src; dst; k } ->
               if not (ops.is_failed src) then ops.send ~src ~dst (P.Ping k)
             | Timer { node; q } ->
               ops.timer ~node ~delay:(float_of_int q /. 8.0) (fun () ->
                   Printf.bprintf b "T%d@%h;" node (Engine.now e);
                   ops.send ~src:node ~dst:((node + 1) mod sc.n) (P.Ping 100))
             | Fail i ->
               ops.fail i;
               Printf.bprintf b "F%d;" i
             | Recover i ->
               if ops.is_failed i then begin
                 ops.recover i;
                 Printf.bprintf b "U%d;" i
               end)))
    sc.steps;
  if sc.chunk = 0 then Engine.run e
  else
    while not (Engine.quiescent e) do
      Engine.run ~max_steps:sc.chunk e
    done;
  let s, d, x = ops.counters () in
  Printf.bprintf b "sent=%d delivered=%d dropped=%d" s d x;
  Buffer.contents b

let real sc =
  play sc ~make:(fun e rng ->
      let net = Net.create ~engine:e ~rng ~n:sc.n ~delay:sc.delay () in
      ( {
          send = (fun ~src ~dst p -> Net.send net ~src ~dst p);
          timer =
            (fun ~node ~delay f -> ignore (Net.set_timer net ~node ~delay f));
          fail = Net.fail net;
          recover = Net.recover net;
          is_failed = Net.is_failed net;
          counters =
            (fun () ->
              (Net.sent_total net, Net.delivered_total net, Net.dropped_total net));
        },
        fun h dh ->
          Net.set_default_handler net h;
          Net.set_drop_handler net dh ))

let reference sc =
  play sc ~make:(fun e rng ->
      let net = Ref.create ~engine:e ~rng ~n:sc.n ~delay:sc.delay () in
      ( {
          send = (fun ~src ~dst p -> Ref.send net ~src ~dst p);
          timer = (fun ~node ~delay f -> Ref.set_timer net ~node ~delay f);
          fail = Ref.fail net;
          recover = Ref.recover net;
          is_failed = Ref.is_failed net;
          counters =
            (fun () ->
              (Ref.sent_total net, Ref.delivered_total net, Ref.dropped_total net));
        },
        fun h dh ->
          Ref.set_default_handler net h;
          Ref.set_drop_handler net dh ))

let delay_models =
  [
    Network.Constant 1.0;
    Network.Constant 0.25;
    Network.Uniform { lo = 0.5; hi = 2.0 };
    Network.Exponential { mean = 1.0; cap = 3.0 };
  ]

let script_gen =
  QCheck.Gen.(
    int_range 2 12 >>= fun n ->
    let node = int_bound (n - 1) in
    let action =
      frequency
        [
          ( 4,
            map3
              (fun (src, lo) (len, k) fresh -> Bcast { src; lo; len; k; fresh })
              (pair node node) (pair (int_range 1 12) (int_bound 7)) (frequency [ (4, return false); (1, return true) ])
          );
          ( 2,
            map3
              (fun (src, lo) (len, after) victim ->
                Bcast_toggle { src; lo; len; victim; after })
              (pair node node)
              (pair (int_range 2 12) (int_range 1 6))
              node );
          (2, map3 (fun src dst k -> Send { src; dst; k }) node node (int_bound 7));
          (1, map2 (fun node q -> Timer { node; q }) node (int_bound 16));
          (1, map (fun i -> Fail i) node);
          (1, map (fun i -> Recover i) node);
        ]
    in
    map4
      (fun sched delay chunk steps -> { sched; delay; n; chunk; steps })
      (oneofl scheds) (oneofl delay_models)
      (oneofl [ 0; 1; 2; 5 ])
      (list_size (int_range 1 30) (pair (int_bound 40) action)))

let print_script sc =
  let pa = function
    | Bcast { src; lo; len; k; fresh } ->
      Printf.sprintf "bcast %d->%d+%d ping%d%s" src lo len k
        (if fresh then " fresh" else "")
    | Bcast_toggle { src; lo; len; victim; after } ->
      Printf.sprintf "bcast %d->%d+%d toggling %d after %d" src lo len victim
        after
    | Send { src; dst; k } -> Printf.sprintf "send %d->%d ping%d" src dst k
    | Timer { node; q } -> Printf.sprintf "timer %d +%d/8" node q
    | Fail i -> Printf.sprintf "fail %d" i
    | Recover i -> Printf.sprintf "recover %d" i
  in
  Printf.sprintf "%s n=%d chunk=%d delay=%s [%s]" (sched_name sc.sched) sc.n
    sc.chunk
    (match sc.delay with
    | Network.Constant d -> Printf.sprintf "const %g" d
    | Network.Uniform _ -> "uniform"
    | Network.Exponential _ -> "exp")
    (String.concat "; "
       (List.map (fun (at, a) -> Printf.sprintf "%d/8: %s" at (pa a)) sc.steps))

let qcheck_reference_parity =
  QCheck.Test.make ~count:400
    ~name:"network runs = per-message reference on random scripts"
    (QCheck.make ~print:print_script script_gen)
    (fun sc -> String.equal (real sc) (reference sc))

(* Sampled delays differ per message, so a wave under Uniform or
   Exponential delays never joins a run; the draws come in send order,
   exactly as the reference draws them. *)
let test_random_delays_never_coalesce () =
  List.iter
    (fun delay ->
      let engine, net = make_net ~n:64 ~delay () in
      Net.set_default_handler net (fun ~dst:_ ~src:_ _ -> ());
      broadcast net ~src:0 ~lo:1 ~hi:63 (P.Ping 2);
      checki "one event per message" 63 (Engine.pending engine);
      Engine.run engine;
      let sc =
        {
          sched = Engine.Wheel;
          delay;
          n = 64;
          chunk = 0;
          steps = [ (0, Bcast { src = 0; lo = 1; len = 63; k = 2; fresh = false }) ];
        }
      in
      checks "same deliveries as the reference" (reference sc) (real sc))
    [
      Network.Uniform { lo = 0.5; hi = 2.0 };
      Network.Exponential { mean = 1.0; cap = 3.0 };
    ]

let suite =
  [
    Alcotest.test_case "runs fire like separate events" `Quick
      test_runs_match_separate_events;
    Alcotest.test_case "pending, cut and push-back" `Quick test_pending_and_cut;
    Alcotest.test_case "cancel mid-run" `Quick test_cancel_mid_run;
    Alcotest.test_case "extend refused" `Quick test_extend_refused;
    Alcotest.test_case "member drops" `Quick test_member_drops;
    Alcotest.test_case "join conditions" `Quick test_join_conditions;
    Alcotest.test_case "slot outlives members" `Quick test_slot_outlives_members;
    Alcotest.test_case "random delays never coalesce" `Quick
      test_random_delays_never_coalesce;
  ]
  @ [ QCheck_alcotest.to_alcotest ~long:false qcheck_reference_parity ]
