module Engine = Ocube_sim.Engine
module Rng = Ocube_sim.Rng
module Trace = Ocube_sim.Trace

module type PAYLOAD = sig
  type t

  val pp : Format.formatter -> t -> unit

  val categories : string array

  val category_index : t -> int
end

type delay_model =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float; cap : float }

let delay_bound = function
  | Constant d -> d
  | Uniform { hi; _ } -> hi
  | Exponential { cap; _ } -> cap

let validate_model = function
  | Constant d when d <= 0.0 -> invalid_arg "Network: delay must be positive"
  | Uniform { lo; hi } when lo < 0.0 || hi < lo || hi <= 0.0 ->
    invalid_arg "Network: bad uniform delay bounds"
  | Exponential { mean; cap } when mean <= 0.0 || cap < mean ->
    invalid_arg "Network: bad exponential delay parameters"
  | _ -> ()

module Make (P : PAYLOAD) = struct
  (* Per-node state is flat: at N = 2^16 and beyond, one boxed record per
     node costs the set-up a quarter-million minor words and the major
     heap as many again. *)
  type t = {
    engine : Engine.t;
    rng : Rng.t;
    trace : Trace.t option;
    n : int;
    down : Bytes.t;  (* '\001' while the node is failed *)
    incarnations : int array;
    (* [[||]] until the first [set_handler]: protocols on the shared
       default handler never pay for N options. *)
    mutable handlers : (src:int -> P.t -> unit) option array;
    delay : delay_model;
    delta : float;
    mutable sent : int;
    mutable delivered : int;
    mutable dropped : int;
    mutable failed_count : int;  (* nodes currently failed *)
    mutable drop_handler : (dst:int -> P.t -> unit) option;
    mutable default_handler : (dst:int -> src:int -> P.t -> unit) option;
    mutable send_hook : (src:int -> dst:int -> P.t -> unit) option;
    (* Sends per category, indexed like [P.categories]. *)
    cat_counts : int array;
    (* Every fail and recover, in order: the node id. A message is lost
       iff its destination is down at delivery or appears here since the
       message's epoch (the log length when its run began) — exactly
       "the destination's incarnation changed in flight". *)
    mutable log : int array;
    mutable log_len : int;
    (* In-flight runs. A run is one packed engine event (payload words:
       the run's slot here, and its first destination) whose members go
       to consecutive destinations; these parallel arrays hold what the
       members share. Slots recycle through [m_free] once the last
       member is taken; a freed slot retains its last [P.t] until reuse,
       which bounds retention by the peak in-flight count. *)
    deliver_cls : Engine.class_id;
    mutable m_cap : int;
    mutable m_src : int array;
    mutable m_epoch : int array;
    (* Members not yet delivered while the slot is in flight; the next
       free slot while it is on the freelist. *)
    mutable m_left : int array;
    mutable m_payload : P.t array;
    mutable m_free : int;
    (* The run last scheduled: [send] appends to it when the message is
       its next member (see [send]). *)
    mutable run_msg : int;
    mutable run_id : Engine.timer_id;
    mutable run_next_dst : int;
    run_delay : floatarray;
  }

  type timer = Engine.timer_id

  let no_msg = -1

  let[@ocube.alloc_ok (* amortised doubling of the in-flight arena *)] grow_msgs
      t payload =
    let ncap = if t.m_cap = 0 then 64 else 2 * t.m_cap in
    let extend arr fill =
      let narr = Array.make ncap fill in
      Array.blit arr 0 narr 0 t.m_cap;
      narr
    in
    t.m_src <- extend t.m_src 0;
    t.m_epoch <- extend t.m_epoch 0;
    t.m_left <- extend t.m_left no_msg;
    (* [payload] — the message being sent — doubles as the fill value, so
       no dummy [P.t] is ever required of the functor argument. *)
    t.m_payload <- extend t.m_payload payload;
    for s = ncap - 1 downto t.m_cap do
      t.m_left.(s) <- t.m_free;
      t.m_free <- s
    done;
    t.m_cap <- ncap

  let[@ocube.zero_alloc] msg_alloc t ~src payload =
    if t.m_free = no_msg then grow_msgs t payload;
    let s = t.m_free in
    t.m_free <- t.m_left.(s);
    t.m_src.(s) <- src;
    t.m_epoch.(s) <- t.log_len;
    t.m_left.(s) <- 1;
    t.m_payload.(s) <- payload;
    s

  let[@ocube.zero_alloc] msg_free t s =
    t.m_left.(s) <- t.m_free;
    t.m_free <- s

  let[@ocube.alloc_ok (* amortised doubling; once per fail or recover *)]
      log_transition t i =
    if t.log_len = Array.length t.log then begin
      let nlog = Array.make (max 16 (2 * t.log_len)) 0 in
      Array.blit t.log 0 nlog 0 t.log_len;
      t.log <- nlog
    end;
    t.log.(t.log_len) <- i;
    t.log_len <- t.log_len + 1

  (* Has [dst] failed or recovered since log position [i]? The scan
     covers only transitions while the message was in flight: none at
     all on a fault-free run. *)
  let[@ocube.zero_alloc] rec logged_since t dst i =
    i < t.log_len && (t.log.(i) = dst || logged_since t dst (i + 1))

  let[@ocube.zero_alloc] is_down t i = Bytes.unsafe_get t.down i <> '\000'

  let engine t = t.engine

  let size t = t.n

  let delta t = t.delta

  let check_node t i =
    if i < 0 || i >= size t then
      invalid_arg (Printf.sprintf "Network: node %d out of range" i)

  let set_handler t i h =
    check_node t i;
    if Array.length t.handlers = 0 then t.handlers <- Array.make t.n None;
    t.handlers.(i) <- Some h

  let set_drop_handler t h = t.drop_handler <- Some h

  let set_default_handler t h = t.default_handler <- Some h

  let set_send_hook t h = t.send_hook <- Some h

  let clear_send_hook t = t.send_hook <- None

  (* [detail] is a thunk: with tracing off it is never called, so the hot
     path allocates no format buffers; with tracing on it is stored
     unevaluated and rendered only when the trace is read.

     Call sites whose thunk captures anything (the payload, a peer id)
     must guard on [tracing] {e before} building the closure: the [fun]
     expression itself allocates, and at N≈1M nodes a per-send closure
     that exists only to be discarded dominates the minor heap. *)
  let tracing t = t.trace <> None

  let record t ?node ~tag detail =
    match t.trace with
    | None -> ()
    | Some tr -> Trace.record_thunk tr ~time:(Engine.now t.engine) ?node ~tag detail

  let sample_delay t =
    match t.delay with
    | Constant d -> d
    | Uniform { lo; hi } -> lo +. Rng.float t.rng (hi -. lo)
    | Exponential { mean; cap } -> Float.min cap (Rng.exponential t.rng ~mean)

  let[@ocube.zero_alloc] bump_category t payload =
    let c =
      (P.category_index payload)
      [@ocube.alloc_ok
        (* functor argument, not modelled by the call graph: the protocol
           payload's index is a constant-returning match, proven
           zero-alloc where it is defined *)]
    in
    t.cat_counts.(c) <- t.cat_counts.(c) + 1

  (* Deliver one member of a run: read the shared fields into locals,
     recycle the slot if this is the last member (nested sends reuse it
     immediately), then drop or hand over the message. *)
  let[@ocube.zero_alloc] deliver t s dst =
    let src = t.m_src.(s) in
    let epoch = t.m_epoch.(s) in
    let payload = t.m_payload.(s) in
    let left = t.m_left.(s) - 1 in
    if left = 0 then msg_free t s else t.m_left.(s) <- left;
    if is_down t dst || logged_since t dst epoch then begin
      t.dropped <- t.dropped + 1;
      (if tracing t then
         record t ~node:dst ~tag:"drop" (fun () ->
             Format.asprintf "from %d: %a (node down)" src P.pp payload))
      [@ocube.alloc_ok (* closure only built with tracing on *)];
      (match t.drop_handler with
       | Some h -> h ~dst payload
       | None -> ())
      [@ocube.alloc_ok (* observer dispatch; absent on the measured path *)]
    end
    else begin
      t.delivered <- t.delivered + 1;
      (if tracing t then
         record t ~node:dst ~tag:"recv" (fun () ->
             Format.asprintf "from %d: %a" src P.pp payload))
      [@ocube.alloc_ok (* closure only built with tracing on *)];
      let own =
        if Array.length t.handlers = 0 then None else t.handlers.(dst)
      in
      (match own with
       | Some h -> h ~src payload
       | None -> (
         match t.default_handler with
         | Some h -> h ~dst ~src payload
         | None ->
           failwith
             (Printf.sprintf "Network: node %d has no handler installed" dst)))
      [@ocube.alloc_ok
        (* dispatch into the protocol handler: what the handler allocates
           is accounted where the handler is defined *)]
    end

  let create ~engine ~rng ?trace ~n ~delay () =
    if n < 1 then invalid_arg "Network.create: n must be >= 1";
    validate_model delay;
    (* The delivery class must be registered before [t] exists; the cell
       ties the knot. No delivery can fire before [create] returns. *)
    let cell = ref None in
    let deliver_cls =
      Engine.register_class engine (fun s dst ->
          match !cell with
          | Some f -> f s dst
          | None -> assert false)
    in
    let t =
      {
        engine;
        rng;
        trace;
        n;
        down = Bytes.make n '\000';
        incarnations = Array.make n 0;
        handlers = [||];
        delay;
        delta = delay_bound delay;
        sent = 0;
        delivered = 0;
        dropped = 0;
        failed_count = 0;
        drop_handler = None;
        default_handler = None;
        send_hook = None;
        cat_counts = Array.make (Array.length P.categories) 0;
        log = [||];
        log_len = 0;
        deliver_cls;
        m_cap = 0;
        m_src = [||];
        m_epoch = [||];
        m_left = [||];
        m_payload = [||];
        m_free = no_msg;
        run_msg = no_msg;
        run_id = Engine.no_timer;
        run_next_dst = -1;
        run_delay = Float.Array.make 1 0.0;
      }
    in
    cell := Some (deliver t);
    t

  (* A send joins the last run, as its next member, when the run is the
     engine's most recently scheduled event and nothing has fired since
     ([Engine.extend] checks both), the source and the payload (physical
     equality) are the run's, [dst] is the run's next destination, the
     sampled delay is the run's, and no node has failed or recovered
     since the run began. The member then holds exactly the engine slot
     its own event would have had: delivery order, RNG draws, hooks and
     counters are those of one event per message. *)
  let[@ocube.zero_alloc] send t ~src ~dst payload =
    check_node t src;
    check_node t dst;
    if is_down t src then
      invalid_arg
        (Printf.sprintf "Network.send: node %d is failed and cannot send" src);
    t.sent <- t.sent + 1;
    bump_category t payload;
    (match t.send_hook with None -> () | Some h -> h ~src ~dst payload)
    [@ocube.alloc_ok (* observer dispatch; absent on the measured path *)];
    (if tracing t then
       record t ~node:src ~tag:"send" (fun () ->
           Format.asprintf "-> %d: %a" dst P.pp payload))
    [@ocube.alloc_ok (* closure only built with tracing on *)];
    let delay =
      (sample_delay t)
      [@ocube.alloc_ok
        (* float sampling can box at the Rng call boundary; inside the
           64-words/send budget *)]
    in
    let r = t.run_msg in
    if
      r <> no_msg
      && dst = t.run_next_dst
      && t.m_src.(r) = src
      && t.m_payload.(r) == payload
      && t.m_epoch.(r) = t.log_len
      && delay = Float.Array.get t.run_delay 0
      && Engine.extend t.engine t.run_id
    then begin
      t.m_left.(r) <- t.m_left.(r) + 1;
      t.run_next_dst <- dst + 1
    end
    else begin
      let s = msg_alloc t ~src payload in
      t.run_msg <- s;
      t.run_next_dst <- dst + 1;
      Float.Array.set t.run_delay 0 delay;
      t.run_id <-
        Engine.schedule_packed t.engine ~delay ~cls:t.deliver_cls ~a:s ~b:dst
    end

  let set_timer t ~node ~delay f =
    check_node t node;
    let expected_incarnation = t.incarnations.(node) in
    Engine.schedule t.engine ~delay (fun () ->
        if (not (is_down t node)) && t.incarnations.(node) = expected_incarnation
        then f ())

  let cancel_timer t timer = Engine.cancel t.engine timer

  let fail t i =
    check_node t i;
    if not (is_down t i) then begin
      Bytes.set t.down i '\001';
      t.failed_count <- t.failed_count + 1;
      t.incarnations.(i) <- t.incarnations.(i) + 1;
      log_transition t i;
      record t ~node:i ~tag:"fault" (fun () -> "fail-stop")
    end

  let recover t i =
    check_node t i;
    if not (is_down t i) then invalid_arg "Network.recover: node is not failed";
    Bytes.set t.down i '\000';
    t.failed_count <- t.failed_count - 1;
    t.incarnations.(i) <- t.incarnations.(i) + 1;
    log_transition t i;
    record t ~node:i ~tag:"fault" (fun () -> "recover")

  let is_failed t i =
    check_node t i;
    is_down t i

  let failed_count t = t.failed_count

  let alive_nodes t =
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      if not (is_down t i) then acc := i :: !acc
    done;
    !acc

  let incarnation t i =
    check_node t i;
    t.incarnations.(i)

  let sent_total t = t.sent

  let delivered_total t = t.delivered

  let dropped_total t = t.dropped

  let sent_by_category t =
    let acc = ref [] in
    Array.iteri
      (fun i n -> if n > 0 then acc := (P.categories.(i), n) :: !acc)
      t.cat_counts;
    List.sort compare !acc

  let reset_counters t =
    t.sent <- 0;
    t.delivered <- 0;
    t.dropped <- 0;
    Array.fill t.cat_counts 0 (Array.length t.cat_counts) 0
end
