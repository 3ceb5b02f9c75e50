open Sfq_base

type regs = { mutable aux : int; mutable eligible : int }

type fregs = {
  mutable fkey : float;
  mutable faux : float;
  mutable feligible : float;
  mutable fhorizon : float;
}

type keys =
  | Int of {
      regs : regs;
      rank : now:float -> Packet.t -> int;
      on_dequeue : key:int -> aux:int -> empty:bool -> unit;
      horizon : now:float -> int;
    }
  | Float of {
      fregs : fregs;
      rank : now:float -> Packet.t -> unit;
      on_dequeue : empty:bool -> unit;
      horizon : now:float -> unit;
    }

type t = {
  name : string;
  shaped : bool;
  keys : keys;
  on_idle : unit -> unit;
  attach : (unit -> int) -> unit;
  on_close : now:float -> Packet.flow -> unit;
  vtime : unit -> float;
}

let regs () = { aux = 0; eligible = 0 }
let fregs () = { fkey = 0.0; faux = 0.0; feligible = 0.0; fhorizon = 0.0 }
let no_dequeue ~key:_ ~aux:_ ~empty:_ = ()
let no_fdequeue ~empty:_ = ()
let no_idle () = ()
let no_horizon ~now:_ = 0
let no_fhorizon ~now:_ = ()
let no_attach _ = ()
let no_close ~now:_ (_ : Packet.flow) = ()
let no_vtime () = 0.0
