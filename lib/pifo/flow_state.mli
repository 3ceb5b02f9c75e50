(** Dense fixed-point per-flow state for rank programs.

    One int tag slot per flow (finish tag, EAT floor — whatever the
    program stores) and a cached [scale /. rate] float so a packet's
    virtual length is one multiply + round. Every operation keeps its floats
    internal — arguments and results are ints or pointers — so a rank
    program built on this module stays allocation-free in steady state
    even across the module boundary (nothing here forces a float box).

    Activation is the first packet of a flow since creation or
    {!forget}: the weight function is read then and cached until
    {!forget}. This is the documented divergence of the fixed-point
    disciplines from their float originals, which re-read the weight
    on every packet, so a mid-backlog reweight applies there at once
    and here only after the flow is closed. *)

open Sfq_base

type t

val cover : 'a array -> Packet.flow -> 'a -> 'a array
(** [cover a flow fill]: a copy of the dense per-flow array [a] grown
    to hold index [flow] (at least doubled, at least 16 slots), new
    slots set to [fill]. The growth policy of every per-flow array in
    this library. *)

val create : ?frac_bits:int -> Weights.t -> t
(** Fresh state over a {!Tag} codec with [frac_bits]
    fractional bits (default 20). *)

val codec : t -> Tag.t

val delta : t -> Packet.t -> int
(** The packet's tag increment [round (len * scale / rate)], clamped to
    [[1, Tag.max_tag]]. Uses the cached flow rate, activating the flow
    (one [Weights.get] call) if this is its first packet; a per-packet
    rate override ([pkt.rate = Some r]) replaces the flow rate for this
    packet only. Grows the arrays as needed.
    @raise Invalid_argument if the flow's rate is [<= 0]. *)

val advance : t -> floor:int -> Packet.t -> int
(** Fused SFQ-shape update in one call: grow/activate as needed,
    compute the packet's {!delta} [d] (honouring a per-packet rate
    override), read the flow's previous tag [fprev], take
    [stag = max floor fprev], store [sat_add stag d] back into the
    slot, and return [stag]. The stored finish tag is readable via
    {!last}. Semantically identical to
    [delta]/[get]/[max]/[sat_add]/[set] but one module-boundary call
    and one bounds check instead of three of each on the rank-program
    hot path. *)

val advance_reserved : t -> floor:int -> Packet.t -> int
(** {!advance} pricing every packet at the flow's reserved rate
    (ignoring per-packet overrides) — the SCFQ convention. *)

val advance_eat : t -> now:float -> Packet.t -> int
(** Fused Virtual-Clock-shape update: compute [d] (honouring rate
    overrides) and the real-time tag [nt = round (now * scale)]
    (negative clocks clamp to 0, the rail saturates), read the flow's
    EAT floor [fl], take [eat = max nt fl], store [sat_add eat d], and
    return [eat]. The stored stamp is readable via {!last}. *)

val last : t -> int
(** The tag stored by the most recent [advance]/[advance_reserved]/
    [advance_eat] call (0 before the first) — lets a rank program
    publish the secondary output without tupling. *)

val get : t -> Packet.flow -> int
(** The flow's tag slot (0 if never written — matching the float
    schedulers' [F = 0] / clamped EAT-floor defaults). *)

val set : t -> Packet.flow -> int -> unit

val clear : t -> unit
(** Zero every tag slot, keeping rate caches — SCFQ's idle reset. *)

val forget : t -> Packet.flow -> unit
(** Flow closure: zero the flow's tag slot and drop its cached rate so
    a reopened id re-reads the weight function. *)
