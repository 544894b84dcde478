(* The RUNTIME abstraction: the complete set of environment effects a
   protocol core is allowed to perform. See runtime.mli. *)

module type S = sig
  type t

  type timer

  val size : t -> int

  val delta : t -> float

  val now : t -> float

  val send : t -> src:int -> dst:int -> Types.Message.t -> unit

  val set_handler : t -> int -> (src:int -> Types.Message.t -> unit) -> unit

  val set_default_handler :
    t -> (dst:int -> src:int -> Types.Message.t -> unit) -> unit

  val set_drop_handler : t -> (dst:int -> Types.Message.t -> unit) -> unit

  val set_timer : t -> node:int -> delay:float -> (unit -> unit) -> timer

  val cancel_timer : t -> timer -> unit

  val is_failed : t -> int -> bool

  val failed_count : t -> int

  val incarnation : t -> int -> int
end

module Sim = struct
  include Types.Net

  let now t = Ocube_sim.Engine.now (engine t)
end
