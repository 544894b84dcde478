module Types = Ocube_mutex.Types
module Wire = Ocube_mutex.Wire

type timer = int

type pending = { id : int; deadline : float; fn : unit -> unit }

type t = {
  me : int;
  n : int;
  tick : float;
  delta_units : float;
  t0 : float;
  sock : Unix.file_descr;
  mutable timers : pending list;  (* sorted by deadline, then id *)
  mutable next_id : int;
  handlers : (src:int -> Types.Message.t -> unit) option array;
  mutable default_handler : (dst:int -> src:int -> Types.Message.t -> unit) option;
  mutable drop_handler : (dst:int -> Types.Message.t -> unit) option;
}

let create ~me ~n ~tick ~delta ~sock =
  if me < 0 || me >= n then invalid_arg "Proc_runtime.create: bad node id";
  if tick <= 0.0 || delta <= 0.0 then
    invalid_arg "Proc_runtime.create: tick and delta must be positive";
  {
    me;
    n;
    tick;
    delta_units = delta;
    t0 = Unix.gettimeofday ();
    sock;
    timers = [];
    next_id = 0;
    handlers = Array.make n None;
    default_handler = None;
    drop_handler = None;
  }

let me t = t.me

let size t = t.n

let delta t = t.delta_units

(* Simulated-time clock: real seconds since creation, scaled by [tick]
   seconds per time unit. Every protocol timeout is a multiple of
   [delta] time units, so [tick] alone decides how long fault detection
   takes on the wall. *)
let now t = (Unix.gettimeofday () -. t.t0) /. t.tick

let send t ~src ~dst msg =
  if src <> t.me then invalid_arg "Proc_runtime.send: not this node";
  if dst < 0 || dst >= t.n then invalid_arg "Proc_runtime.send: bad dst";
  Frame.write t.sock
    (Ctrl.encode_to_parent (Ctrl.Send { dst; msg = Wire.encode msg }))

let set_handler t i h =
  if i < 0 || i >= t.n then invalid_arg "Proc_runtime.set_handler";
  t.handlers.(i) <- Some h

let set_default_handler t h = t.default_handler <- Some h

let set_drop_handler t h = t.drop_handler <- Some h

let set_timer t ~node ~delay fn =
  if node <> t.me then invalid_arg "Proc_runtime.set_timer: not this node";
  if not (Float.is_finite delay) || delay < 0.0 then
    invalid_arg "Proc_runtime.set_timer: bad delay";
  let id = t.next_id in
  t.next_id <- id + 1;
  let p = { id; deadline = now t +. delay; fn } in
  let rec insert = function
    | [] -> [ p ]
    | q :: rest as l ->
      if p.deadline < q.deadline then p :: l else q :: insert rest
  in
  t.timers <- insert t.timers;
  id

let cancel_timer t id = t.timers <- List.filter (fun p -> p.id <> id) t.timers

(* A SIGKILLed process is gone for good: nothing it hosts can observe a
   failure, so within a live child every peer looks alive. Failure
   manifests only as silence — exactly the fail-stop model. *)
let is_failed _ _ = false

let failed_count _ = 0

let incarnation _ _ = 0

(* --- event-loop plumbing (used by Node_main, not part of Runtime.S) --- *)

let next_deadline t =
  match t.timers with [] -> None | p :: _ -> Some p.deadline

let fire_due t =
  let rec go () =
    match t.timers with
    | p :: rest when p.deadline <= now t ->
      t.timers <- rest;
      p.fn ();
      go ()
    | _ -> ()
  in
  go ()

let deliver t ~src raw =
  let msg = Wire.decode raw in
  match t.handlers.(t.me) with
  | Some h -> h ~src msg
  | None -> (
    match t.default_handler with
    | Some h -> h ~dst:t.me ~src msg
    | None -> (
      match t.drop_handler with
      | Some h -> h ~dst:t.me msg
      | None -> ()))
