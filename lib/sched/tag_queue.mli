(** The tie rule shared by every tag-ordered store.

    Every tag-based discipline serves in [(tag, tie, arrival order)]
    order: the arrival-order fallback makes it deterministic and,
    because the paper's disciplines assign non-decreasing tags within a
    flow, preserves per-flow FIFO order. The optional [tie] rule
    refines ordering {e between equal tags} before that fallback —
    §2.3 of the paper notes that SFQ's delay guarantee is tie-break
    independent but that a rule favouring low-throughput flows reduces
    their average delay. The stores themselves are {!Flow_heap} (float
    tags: {!Sfq_core.Sfq}, {!Wfq} and the float store of
    [Sfq_pifo.Pifo_sched]) and {!Iflow_heap} (int tags). *)

open Sfq_base

type tie = Arrival | Low_rate of (Packet.flow -> float) | High_rate of (Packet.flow -> float)
(** [Arrival]: FIFO among equal tags. [Low_rate w]/[High_rate w]:
    among equal tags prefer the flow with the smaller/larger weight
    under [w], then arrival order. The weight function must be fixed
    while the flow is backlogged. *)

val tie_value : tie -> Packet.flow -> float
(** The flow's tie key, ascending = preferred: [0] under [Arrival],
    [w flow] under [Low_rate w], [-. w flow] under [High_rate w]. The
    one encoding every tie-aware store orders by. *)
