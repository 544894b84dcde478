(* Workload des_p16: the open cube (default config, fault tolerance on)
   at N = 2^16 in the discrete-event simulator, constant delay 1 (δ = 1),
   CS = 1, open-loop aggregate Poisson arrivals, and the token holder
   crashed at evenly spaced virtual times, recovering later.

   The traced variant instantiates the same protocol core over [Traced],
   a Runtime.S wrapper of Runtime.Sim that times every send, message
   handler and timer callback from outside the library. *)

open Common
module Runner = Ocube_mutex.Runner
module Runtime = Ocube_mutex.Runtime
module Types = Ocube_mutex.Types
module Message = Types.Message
module Net = Types.Net
module Oc = Ocube_mutex.Opencube_algo
module Engine = Ocube_sim.Engine
module Source = Ocube_workload.Source
module Faults = Ocube_workload.Faults

let p = 16

let n = 1 lsl p

let rate = 0.1 (* wishes per δ, system-wide *)

let horizon = 19_000.0

let kills = 4

let recover_after = 50.0

(* Liveness cap: 2.5x the work of the heaviest quiescing run over seeds
   1-20 (seed 6, 9.6M messages), and low enough that a livelocked seed's
   untraced and traced runs together stay within the time limit. *)
let max_steps = 25_000_000

(* Virtual times at which the token holder is crashed: [kills] points
   evenly spaced over the arrival horizon. *)
let kill_times =
  List.init kills (fun k ->
      horizon *. float_of_int (k + 1) /. float_of_int (kills + 1))

(* --- tracer: in-memory spans at the layer boundaries ---------------------- *)

module Tracer = struct
  (* span names *)
  let send = 0

  let handler = 1

  let timer = 2

  let api = 3

  let names = [| "net.send"; "mutex.handler"; "mutex.timer"; "mutex.api" |]

  (* Every span is folded into the per-name aggregates; the first [cap]
     are also kept whole (name, start, end, parent, origin) and written
     out at the end of the run. *)
  let cap = 1 lsl 18

  let s_name = Array.make cap 0

  let s_start = Array.make cap 0

  let s_end = Array.make cap 0

  let s_parent = Array.make cap 0

  let s_origin = Array.make cap 0

  let next_id = ref 0

  let self_ns = Array.make (Array.length names) 0

  let total_ns = Array.make (Array.length names) 0

  (* open-span stack: id, start, time covered by children *)
  let max_depth = 64

  let st_id = Array.make max_depth 0

  let st_start = Array.make max_depth 0

  let st_child = Array.make max_depth 0

  let st_name = Array.make max_depth 0

  let depth = ref 0

  (* counters at the same boundaries *)
  let handler_calls = ref 0

  let timers_set = ref 0

  let timers_cancelled = ref 0

  let timers_fired = ref 0

  (* time covered by top-level spans: what the protocol layer, and the
     sends it issued, took out of the engine's run *)
  let top_ns = ref 0

  let reset () =
    next_id := 0;
    depth := 0;
    Array.fill self_ns 0 (Array.length self_ns) 0;
    Array.fill total_ns 0 (Array.length total_ns) 0;
    handler_calls := 0;
    timers_set := 0;
    timers_cancelled := 0;
    timers_fired := 0;
    top_ns := 0

  let enter name ~origin =
    let id = !next_id in
    incr next_id;
    let d = !depth in
    let t = now_ns () in
    if id < cap then begin
      s_name.(id) <- name;
      s_start.(id) <- t;
      s_parent.(id) <- (if d = 0 then -1 else st_id.(d - 1));
      s_origin.(id) <- origin
    end;
    st_id.(d) <- id;
    st_start.(d) <- t;
    st_child.(d) <- 0;
    st_name.(d) <- name;
    depth := d + 1

  let leave () =
    let t = now_ns () in
    let d = !depth - 1 in
    depth := d;
    let id = st_id.(d) and name = st_name.(d) in
    let dur = t - st_start.(d) in
    if id < cap then s_end.(id) <- t;
    self_ns.(name) <- self_ns.(name) + dur - st_child.(d);
    total_ns.(name) <- total_ns.(name) + dur;
    if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur
    else top_ns := !top_ns + dur

  let span name ~origin f =
    enter name ~origin;
    match f () with
    | v ->
      leave ();
      v
    | exception e ->
      leave ();
      raise e

  let stored () = min !next_id cap

  let write_tsv path =
    let oc = open_out path in
    output_string oc "id\tparent\tname\torigin\tstart_ns\tend_ns\n";
    let base = if stored () > 0 then s_start.(0) else 0 in
    for id = 0 to stored () - 1 do
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\n" id s_parent.(id)
        names.(s_name.(id))
        s_origin.(id)
        (s_start.(id) - base)
        (s_end.(id) - base)
    done;
    close_out oc
end

let origin_of m = match Message.origin m with Some o -> o | None -> -1

(* Runtime.Sim with every protocol-visible effect timed. Types are
   Runtime.Sim's, so the instance attaches to a plain runner env. *)
module Traced :
  Runtime.S with type t = Types.Net.t and type timer = Types.Net.timer = struct
  include Runtime.Sim

  let send t ~src ~dst m =
    Tracer.span Tracer.send ~origin:(origin_of m) (fun () ->
        Runtime.Sim.send t ~src ~dst m)

  let set_handler t i h =
    Runtime.Sim.set_handler t i (fun ~src m ->
        incr Tracer.handler_calls;
        Tracer.span Tracer.handler ~origin:(origin_of m) (fun () -> h ~src m))

  let set_default_handler t h =
    Runtime.Sim.set_default_handler t (fun ~dst ~src m ->
        incr Tracer.handler_calls;
        Tracer.span Tracer.handler ~origin:(origin_of m) (fun () ->
            h ~dst ~src m))

  let set_timer t ~node ~delay f =
    incr Tracer.timers_set;
    Runtime.Sim.set_timer t ~node ~delay (fun () ->
        incr Tracer.timers_fired;
        Tracer.span Tracer.timer ~origin:node f)

  let cancel_timer t tm =
    incr Tracer.timers_cancelled;
    Runtime.Sim.cancel_timer t tm
end

module Oc_traced = Oc.Make (Traced)

(* --- one scenario ---------------------------------------------------------- *)

type run = {
  setup_s : float;
  run_s : float;  (* wall time of the engine run, set-up excluded *)
  quiesced : bool;
  issued : int;
  entries : int;
  abandoned : int;
  outstanding : int;
  violations : int;
  messages : int;
  delivered : int;
  dropped : int;
  by_category : (string * int) list;
  waits_vt : float array;  (* virtual wish→enter, δ units *)
  waits_us : float array;  (* wall wish→enter, µs *)
  unavailable_vt : float;
  stats : Oc.stats;
  (* traced runs only *)
  events : int;
  peak_pending : int;
  sends_by_hook : (string * int) list;
}

(* The same protocol core over either runtime: the runner-facing
   instance and the core's stats accessor. *)
let plain ~net ~callbacks =
  let a = Oc.create ~net ~callbacks ~config:(Oc.default_config ~p) in
  (Oc.instance a, fun () -> Oc.stats a)

let traced ~net ~callbacks =
  let a = Oc_traced.create ~net ~callbacks ~config:(Oc.default_config ~p) in
  let inst = Oc_traced.instance a in
  let api f node = Tracer.span Tracer.api ~origin:node (fun () -> f node) in
  ( {
      inst with
      Types.request_cs = api inst.Types.request_cs;
      release_cs = api inst.Types.release_cs;
      on_recovered = api inst.Types.on_recovered;
    },
    fun () -> Oc_traced.stats a )

(* The set-up: the 2^16-node environment, the protocol instance, the
   arrival stream, the crashes and (traced) the hooks. It returns the
   run, which reads the results back once the engine stops. *)
let build ~seed ~trace =
  let env =
    Runner.make_env ~seed ~n ~delay:(Ocube_net.Network.Constant 1.0)
      ~cs:(Runner.Fixed 1.0) ()
  in
  let net = Runner.net env in
  let engine = Runner.engine env in
  (* wish→enter timing at the runner/protocol boundary *)
  let issue_vt = Array.make n 0.0 in
  let issue_ns = Array.make n 0 in
  let waits_vt = Samples.create () in
  let waits_us = Samples.create () in
  let entry_times = Samples.create () in
  let cb = Runner.callbacks env in
  let callbacks =
    {
      cb with
      Types.on_enter =
        (fun node ->
          let t = Engine.now engine in
          Samples.add waits_vt (t -. issue_vt.(node));
          Samples.add waits_us
            (float_of_int (now_ns () - issue_ns.(node)) *. 1e-3);
          Samples.add entry_times t;
          cb.Types.on_enter node);
    }
  in
  let inst, stats =
    if trace then traced ~net ~callbacks else plain ~net ~callbacks
  in
  let inst =
    {
      inst with
      Types.request_cs =
        (fun node ->
          issue_vt.(node) <- Engine.now engine;
          issue_ns.(node) <- now_ns ();
          inst.Types.request_cs node);
    }
  in
  Runner.attach env inst;
  Runner.run_source env
    (Source.poisson ~rng:(Runner.rng env) ~n ~rate ~horizon);
  (* crash whoever holds the token at each kill time; while the token is
     in flight, retry a quarter δ later *)
  let crash_times = Samples.create () in
  List.iter
    (fun at ->
      let rec attempt () =
        match inst.Types.token_holders () with
        | holder :: _ ->
          Samples.add crash_times (Engine.now engine);
          Runner.schedule_faults env
            [ Faults.at (Engine.now engine) holder ~recover_after () ]
        | [] -> ignore (Engine.schedule engine ~delay:0.25 attempt)
      in
      ignore (Engine.schedule_at engine ~time:at attempt))
    kill_times;
  let events = ref 0 and peak_pending = ref 0 in
  let hook_counts = Hashtbl.create 16 in
  if trace then begin
    ignore
      (Engine.add_step_hook engine (fun () ->
           incr events;
           let pending = Engine.pending engine in
           if pending > !peak_pending then peak_pending := pending));
    Net.set_send_hook net (fun ~src:_ ~dst:_ m ->
        let c = Message.category m in
        Hashtbl.replace hook_counts c
          (1 + Option.value ~default:0 (Hashtbl.find_opt hook_counts c)))
  end;
  fun ~setup_s ->
    let t1 = now_ns () in
    (* A run that has not quiesced after [max_steps] events is a
       fault-tolerance livelock: its unserved wishes count as failed. *)
    let quiesced =
      match Runner.run_to_quiescence ~max_steps env with
      | () -> true
      | exception Failure _ -> false
    in
    let run_s = seconds_since t1 in
    (* largest gap from a crash to the next CS entry anywhere *)
    let entries_sorted = Samples.to_array entry_times in
    let unavailable_vt =
      Array.fold_left
        (fun acc tc ->
          match Array.find_opt (fun te -> te > tc) entries_sorted with
          | Some te -> Float.max acc (te -. tc)
          | None -> Float.max acc (Runner.now env -. tc))
        0.0
        (Samples.to_array crash_times)
    in
    {
      setup_s;
      run_s;
      quiesced;
      issued = Runner.issued env;
      entries = Runner.cs_entries env;
      abandoned = Runner.abandoned env;
      outstanding = Runner.outstanding env;
      violations = Runner.violations env;
      messages = Runner.messages_sent env;
      delivered = Net.delivered_total net;
      dropped = Net.dropped_total net;
      by_category = Runner.messages_by_category env;
      waits_vt = Samples.to_array waits_vt;
      waits_us = Samples.to_array waits_us;
      unavailable_vt;
      stats = stats ();
      events = !events;
      peak_pending = !peak_pending;
      sends_by_hook =
        List.map
          (fun c -> (c, Option.value ~default:0 (Hashtbl.find_opt hook_counts c)))
          categories;
    }

(* Untraced set-ups per scenario; [setup_s] is their median. *)
let setup_builds = 5

let scenario ~seed ~traced:trace =
  (* Each set-up is timed on a compacted heap, so that it does not pay
     for collecting an earlier 2^16-node environment; the last one runs.
     The traced run builds once: its set-up time is not reported. *)
  let builds = if trace then 1 else setup_builds in
  let setup_times = Array.make builds 0.0 in
  let run = ref None in
  for i = 0 to builds - 1 do
    run := None;
    Gc.compact ();
    let t0 = now_ns () in
    run := Some (build ~seed ~trace);
    setup_times.(i) <- seconds_since t0
  done;
  (Option.get !run) ~setup_s:(median setup_times)
