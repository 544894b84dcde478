(* A per-message reference network for the run tests.

   The network of lib/net delivers a fan-out wave as one engine run and
   decides losses from a log of fail/recover transitions. This is the
   model it must match, written the plain way: every message is its own
   closure event that remembers its destination's incarnation at send
   time and is lost iff the destination is down at delivery or its
   incarnation changed in flight. Delays are sampled exactly as the real
   network samples them, one draw per send, so both see the same RNG
   stream and the same engine sequence numbers. *)

module Engine = Ocube_sim.Engine
module Rng = Ocube_sim.Rng
module Network = Ocube_net.Network

module Make (P : Network.PAYLOAD) = struct
  type t = {
    engine : Engine.t;
    rng : Rng.t;
    delay : Network.delay_model;
    failed : bool array;
    incarnation : int array;
    mutable handler : dst:int -> src:int -> P.t -> unit;
    mutable drop_handler : dst:int -> P.t -> unit;
    mutable sent : int;
    mutable delivered : int;
    mutable dropped : int;
  }

  let create ~engine ~rng ~n ~delay () =
    {
      engine;
      rng;
      delay;
      failed = Array.make n false;
      incarnation = Array.make n 0;
      handler = (fun ~dst:_ ~src:_ _ -> ());
      drop_handler = (fun ~dst:_ _ -> ());
      sent = 0;
      delivered = 0;
      dropped = 0;
    }

  let set_default_handler t h = t.handler <- h

  let set_drop_handler t h = t.drop_handler <- h

  let sample_delay t =
    match t.delay with
    | Network.Constant d -> d
    | Network.Uniform { lo; hi } -> lo +. Rng.float t.rng (hi -. lo)
    | Network.Exponential { mean; cap } ->
      Float.min cap (Rng.exponential t.rng ~mean)

  let send t ~src ~dst payload =
    if t.failed.(src) then invalid_arg "Ref_net.send: failed source";
    t.sent <- t.sent + 1;
    let inc = t.incarnation.(dst) in
    let delay = sample_delay t in
    ignore
      (Engine.schedule t.engine ~delay (fun () ->
           if t.failed.(dst) || t.incarnation.(dst) <> inc then begin
             t.dropped <- t.dropped + 1;
             t.drop_handler ~dst payload
           end
           else begin
             t.delivered <- t.delivered + 1;
             t.handler ~dst ~src payload
           end))

  let set_timer t ~node ~delay f =
    let inc = t.incarnation.(node) in
    ignore
      (Engine.schedule t.engine ~delay (fun () ->
           if (not t.failed.(node)) && t.incarnation.(node) = inc then f ()))

  let fail t i =
    if not t.failed.(i) then begin
      t.failed.(i) <- true;
      t.incarnation.(i) <- t.incarnation.(i) + 1
    end

  let recover t i =
    if not t.failed.(i) then invalid_arg "Ref_net.recover: not failed";
    t.failed.(i) <- false;
    t.incarnation.(i) <- t.incarnation.(i) + 1

  let is_failed t i = t.failed.(i)

  let sent_total t = t.sent

  let delivered_total t = t.delivered

  let dropped_total t = t.dropped
end
