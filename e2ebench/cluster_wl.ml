(* Workload cluster_n8: the open cube (fault tolerance on) as eight
   forked processes, Lockstep (one wish outstanding system-wide), CS = 0,
   default tick (δ = 20 ms of wall time). Every message crosses the wire
   codec, two frame syscalls and the parent's switch hop; the simulator
   does no work. *)

open Common
module Cluster = Ocube_proc.Cluster
module Pspec = Ocube_proc.Spec
module Types = Ocube_mutex.Types
module Wire = Ocube_mutex.Wire

let p = 3

let n = 1 lsl p

(* lockstep passes over the eight nodes in one cluster run *)
let rounds = 250

let params = { (Pspec.default_params ~p) with Pspec.ft = true }

let config ~metrics =
  {
    (Cluster.default_config ~algo:Pspec.Opencube ~p) with
    Cluster.params;
    cs = 0.0;
    workload = Cluster.Lockstep { rounds };
    metrics;
  }

(* δ in wall microseconds: one simulated time unit is [tick] seconds *)
let delta_us =
  let c = config ~metrics:false in
  c.Cluster.tick *. c.Cluster.delta *. 1e6

(* Per-node send digests of the same lockstep replayed in the simulator
   (the conformance suite's DES side, fault machinery off). No timer
   fires in a crash-free lockstep, so the fault-tolerant cluster must
   send exactly the same bytes. *)
let des_digests () =
  Ocube_proc.Conformance.des_digests
    { Ocube_proc.Conformance.algo = Pspec.Opencube; p; cs = 0.0; rounds }

type run = {
  setup_s : float;  (* cluster start to the first wish: fork of 8 nodes *)
  acquire_s : float;  (* first wish to last exit *)
  reap_s : float;  (* last event to the return of Cluster.run *)
  wall_s : float;  (* whole Cluster.run *)
  wishes : int;
  entries : int;
  served : int;
  messages : int;
  frames : int;
  by_category : (string * int) list;
  latencies_us : float array;  (* wish→enter, wall µs *)
  clean : (unit, string) result;
  digests : string array;
}

let run ~metrics =
  let t_call = now_ns () in
  let o = Cluster.run (config ~metrics) in
  let wall_s = seconds_since t_call in
  let wish_at = Array.make n nan in
  let lat = Samples.create () in
  let first_wish = ref nan and last_event = ref 0.0 and last_exit = ref 0.0 in
  let sends = ref 0 and wishes = ref 0 and enters = ref 0 and exits = ref 0 in
  let cats = Hashtbl.create 16 in
  List.iter
    (fun (t, ev) ->
      last_event := t;
      match ev with
      | Cluster.Ev_wish i ->
        incr wishes;
        if Float.is_nan !first_wish then first_wish := t;
        wish_at.(i) <- t
      | Cluster.Ev_enter i ->
        incr enters;
        Samples.add lat ((t -. wish_at.(i)) *. 1e6)
      | Cluster.Ev_exit _ ->
        incr exits;
        last_exit := t
      | Cluster.Ev_send { category; _ } ->
        incr sends;
        Hashtbl.replace cats category
          (1 + Option.value ~default:0 (Hashtbl.find_opt cats category))
      | Cluster.Ev_drop _ | Cluster.Ev_kill _ | Cluster.Ev_dead _
      | Cluster.Ev_violation _ ->
        ())
    o.Cluster.events;
  {
    setup_s = !first_wish;
    acquire_s = !last_exit -. !first_wish;
    reap_s = wall_s -. !last_event;
    wall_s;
    wishes = o.Cluster.wishes;
    entries = o.Cluster.entries;
    served = o.Cluster.served;
    messages = !sends;
    (* every message is two frames (child→parent Send, parent→child
       Deliver); each wish, entry and exit is one, plus one Quit per node *)
    frames = (2 * !sends) + !wishes + !enters + !exits + n;
    by_category =
      List.map
        (fun c -> (c, Option.value ~default:0 (Hashtbl.find_opt cats c)))
        categories;
    latencies_us = Samples.to_array lat;
    clean = Cluster.oracle_clean o;
    digests = o.Cluster.digests;
  }

(* A message mix with the run's category counts, for timing the codec
   directly. Field values are typical of an 8-node cube. *)
let sample_message i = function
  | "request" ->
    Types.Message.Request
      { origin = i land 7; rid = { Types.source = i land 7; seq = i } }
  | "token" ->
    Types.Message.Token
      { lender = Some (i land 7); rid = Some { Types.source = i land 7; seq = i } }
  | "test" -> Types.Message.Test { d = 1 + (i mod p) }
  | "test_answer" ->
    Types.Message.Test_answer { d = 1 + (i mod p); answer = Types.Father_ok }
  | "census" -> Types.Message.Census { round = i land 3 }
  | "census_reply" ->
    Types.Message.Census_reply { round = i land 3; reply = Types.Token_exists }
  | "enquiry" -> Types.Message.Enquiry { rid = { Types.source = i land 7; seq = i } }
  | "enquiry_answer" ->
    Types.Message.Enquiry_answer
      { rid = { Types.source = i land 7; seq = i }; answer = Types.Token_sent }
  | "anomaly" -> Types.Message.Anomaly { rid = { Types.source = i land 7; seq = i } }
  | _ -> Types.Message.Void { rid = { Types.source = i land 7; seq = i } }

(* Mean ns per Wire.encode and per Wire.decode over the mix, each timed
   over enough repetitions to last a few milliseconds. *)
let codec_ns by_category =
  let mix =
    Array.of_list
      (List.concat_map
         (fun (c, k) -> List.init k (fun i -> sample_message i c))
         by_category)
  in
  if Array.length mix = 0 then (0.0, 0.0)
  else begin
    let reps = max 1 (200_000 / Array.length mix) in
    let encoded = Array.map Wire.encode mix in
    let sink = ref 0 in
    let t0 = now_ns () in
    for _ = 1 to reps do
      Array.iter (fun m -> sink := !sink + String.length (Wire.encode m)) mix
    done;
    let enc = float_of_int (now_ns () - t0) in
    let t1 = now_ns () in
    for _ = 1 to reps do
      Array.iter
        (fun s ->
          match Wire.decode s with
          | Types.Message.Request _ -> incr sink
          | _ -> ())
        encoded
    done;
    let dec = float_of_int (now_ns () - t1) in
    let ops = float_of_int (reps * Array.length mix) in
    ignore (Sys.opaque_identity !sink);
    (enc /. ops, dec /. ops)
  end
