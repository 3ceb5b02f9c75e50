(** A scheduling discipline as a {e rank program}.

    Sivaraman et al., "Programmable Packet Scheduling at Line Rate"
    observe that most per-flow scheduling disciplines decompose into
    (a) a tiny per-packet {e rank computation} executed at enqueue and
    (b) one shared priority-queue runtime that serves packets in rank
    order. This module is the interface of part (a); {!Pifo_sched} is
    part (b). A discipline port is a value of {!t}: a record of
    closures over the program's hidden per-flow state, mirroring the
    repo's {!Sfq_base.Sched} convention so the runtime can call the
    hooks without functor plumbing and — critically for the SFQ fast
    path — without allocating.

    A program ranks in one of two key domains ({!keys}). [Int] ranks
    are {!Tag}-scaled ints, clamped by the runtime into
    [[0, Tag.max_tag]] (saturate, never wrap); further outputs travel
    through the pre-allocated int {!regs} cell, so a rank call is
    closure dispatch + int stores. [Float] ranks are real-valued tags;
    every value crossing the boundary — rank, aux, eligibility rank,
    the served rank handed back at dequeue, the shaper horizon —
    travels through the all-float {!fregs} record, whose writes do not
    box.

    Virtual-time bookkeeping happens in the dequeue hook (called with
    the served entry's ordering fields — SFQ sets [v] to the served
    start tag here) and {!t.on_idle} (the runtime was polled while
    empty — the busy-period rules of §2 of the paper). Closing arrives
    through {!t.on_close}; eviction needs no hook because no shipped
    discipline rolls tags back on evict. Two-stage (shaped) disciplines
    such as WF²Q set {!t.shaped}: the rank call also deposits an
    {e eligibility} rank, and the runtime holds the packet in a shaper
    stage until the program's horizon (e.g. the GPS virtual time)
    passes it. *)

open Sfq_base

type regs = {
  mutable aux : int;
      (** second per-packet output of an int rank: stored next to the
          packet and handed back to the dequeue hook (SFQ's finish
          tag). *)
  mutable eligible : int;
      (** eligibility rank, read only when the program is {!t.shaped}
          (WF²Q's start tag). *)
}

type fregs = {
  mutable fkey : float;
      (** the service rank out of [rank]; the served entry's rank into
          [on_dequeue] *)
  mutable faux : float;  (** like [fkey], for the aux value *)
  mutable feligible : float;  (** eligibility rank of shaped programs *)
  mutable fhorizon : float;  (** out of [horizon]: the eligibility horizon *)
}

type keys =
  | Int of {
      regs : regs;  (** out-parameter cell written by [rank] *)
      rank : now:float -> Packet.t -> int;
          (** per-packet rank computation (enqueue time). Returns the
              service rank; may write [regs]. *)
      on_dequeue : key:int -> aux:int -> empty:bool -> unit;
          (** served-packet hook: [key] is the entry's service rank,
              [aux] the value [rank] left in [regs.aux] at enqueue,
              [empty] whether the queue drained with this removal. *)
      horizon : now:float -> int;
          (** shaped programs: the current eligibility horizon; entries
              with [regs.eligible <= horizon ~now] may be served.
              Consulted once per dequeue/peek, never for unshaped
              programs. *)
    }
  | Float of {
      fregs : fregs;
      rank : now:float -> Packet.t -> unit;  (** writes [fkey], [faux], [feligible] *)
      on_dequeue : empty:bool -> unit;  (** reads the served [fkey]/[faux] *)
      horizon : now:float -> unit;  (** shaped programs: writes [fhorizon] *)
    }

type t = {
  name : string;  (** becomes [Sched.name] of the runtime instance *)
  shaped : bool;
      (** two-stage discipline: packets wait in a shaper until the
          horizon reaches their eligibility rank *)
  keys : keys;  (** the key domain and its per-packet hooks *)
  on_idle : unit -> unit;
      (** the runtime was polled ([dequeue]) while empty — busy period
          over. *)
  attach : (unit -> int) -> unit;
      (** called once by {!Pifo_sched.create} with the runtime's
          [size] thunk, for programs whose clock needs to observe real
          queue occupancy (the GPS busy-period guard). *)
  on_close : now:float -> Packet.flow -> unit;
      (** forget the flow's per-flow state (finish tag, EAT floor,
          fluid backlog) after the runtime flushed its packets. *)
  vtime : unit -> float;
      (** decoded virtual time, for the oracle monitors; programs
          without a virtual clock return 0. *)
}

val regs : unit -> regs
(** A fresh zeroed int out-parameter cell. *)

val fregs : unit -> fregs
(** A fresh zeroed float register record. *)

val no_dequeue : key:int -> aux:int -> empty:bool -> unit
val no_fdequeue : empty:bool -> unit
val no_idle : unit -> unit

val no_horizon : now:float -> int
(** Always 0; placeholder for unshaped int programs. *)

val no_fhorizon : now:float -> unit
(** Placeholder for unshaped float programs. *)

val no_attach : (unit -> int) -> unit
val no_close : now:float -> Packet.flow -> unit
val no_vtime : unit -> float
