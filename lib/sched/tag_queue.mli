(** Priority queue of packets keyed by a scheduling tag.

    Shared engine of every tag-based discipline (SFQ, WFQ, FQS, SCFQ,
    Virtual Clock, Delay EDD): the discipline computes a float tag per
    packet at enqueue time; this queue orders by [(tag, arrival
    order)]. The arrival-order tie-break makes every discipline
    deterministic and, because all the paper's disciplines assign
    non-decreasing tags within a flow, preserves per-flow FIFO order.

    An optional [tie] comparator refines ordering {e between equal
    tags} before the arrival-order fallback — §2.3 of the paper notes
    that SFQ's delay guarantee is tie-break independent but that a rule
    favouring low-throughput flows reduces their average delay.

    Because tags are non-decreasing within a flow, the queue is backed
    by {!Flow_heap}: per-flow FIFOs with only each flow's head packet
    in the heap, so [push]/[pop] cost O(log F) in backlogged flows
    rather than O(log Q) in queued packets (§2.2, Table 1). The tie
    weight function is evaluated at push time and must be fixed for
    the life of the queue. *)

open Sfq_base

type t

type tie = Arrival | Low_rate of (Packet.flow -> float) | High_rate of (Packet.flow -> float)
(** [Arrival]: FIFO among equal tags. [Low_rate w]/[High_rate w]:
    among equal tags prefer the flow with the smaller/larger weight
    under [w], then arrival order. *)

val tie_value : tie -> Packet.flow -> float
(** The flow's tie key, ascending = preferred: [0] under [Arrival],
    [w flow] under [Low_rate w], [-. w flow] under [High_rate w]. The
    one encoding every tie-aware queue orders by. *)

val create : ?tie:tie -> ?capacity:int -> unit -> t
(** [capacity] pre-sizes the flow-head heap. *)

val push : t -> tag:float -> Packet.t -> unit
val pop : t -> (float * Packet.t) option
(** Smallest-tag packet and its tag. *)

val peek : t -> (float * Packet.t) option
val size : t -> int
val backlog : t -> Packet.flow -> int
val is_empty : t -> bool

val evict : t -> Sched.victim -> Packet.flow -> Packet.t option
(** Remove one queued packet of [flow] — its oldest ([Oldest]) or
    newest ([Newest]) — without serving it. [None] when the flow has
    no backlog. Off the hot path (O(F) heap repair). *)

val flush : t -> Packet.flow -> Packet.t list
(** Remove all of [flow]'s queued packets, oldest first, releasing the
    flow's ring storage. *)
