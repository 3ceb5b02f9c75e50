(** SP-PIFO's strict-priority banks (Alcoz et al., NSDI'20): the
    approximate rank store of {!Pifo_sched}.

    [Pifo_sched.create ~banks] runs any unshaped rank program over this
    store instead of the exact {!Sfq_sched.Iflow_heap}; the ["sp-pifo"]
    discipline of [Sfq_experiments.Disc] is {!Programs.sfq} on it. The
    runtime keeps owning ranks, the virtual clock, saturation and the
    {!Sfq_base.Sched} view; the store only holds packets.

    Admission scans from the lowest-priority bank for the first bound
    <= rank and raises that bound to the rank (push-up); when even the
    top bank's bound exceeds the rank, the packet enters the top bank
    and all bounds drop by the overshoot (push-down). Service pops the
    first non-empty bank, FIFO within a bank.

    This is an {e approximation}: rank inversions occur, including
    within a flow, so the served rank is not the smallest queued one
    and SP-PIFO carries no Thm-1 guarantee. It is audited by the
    relaxed fairness oracle ({!Sfq_oracle.Monitor.fairness_measured}),
    which reports its measured unfairness against the exact-SFQ bound
    as a budget instead of a pass/fail verdict. With [banks = 1] it
    degenerates to plain FIFO; more banks buy a finer rank
    approximation at O(banks) admission cost. [push] and [pop_exn]
    allocate nothing once the rings reach peak capacity. *)

open Sfq_base

type t

val create : banks:int -> t
(** @raise Invalid_argument if [banks < 1]. *)

val push : t -> key:int -> aux:int -> Packet.t -> unit
(** Admit a packet of rank [key]; [aux] is stored and handed back by
    {!last_aux}. The flow id must be non-negative. *)

val pop_exn : t -> Packet.t
(** Strict-priority pop; the served entry's fields are left in
    {!last_key} / {!last_aux}. @raise Invalid_argument if empty. *)

val last_key : t -> int
val last_aux : t -> int

val peek : t -> Packet.t option
val size : t -> int
val is_empty : t -> bool
val backlog : t -> Packet.flow -> int

val evict_front : t -> Packet.flow -> Packet.t option
(** Remove the flow's oldest queued packet by arrival, whichever bank
    holds it; [None] if the flow has nothing queued. O(queued). *)

val evict_back : t -> Packet.flow -> Packet.t option
(** Remove the flow's newest queued packet by arrival. *)

val flush_flow : t -> Packet.flow -> Packet.t list
(** Remove every queued packet of the flow, oldest first.
    O(backlog × queued). *)

val banks : t -> int

val bounds : t -> int array
(** Snapshot of the current admission bounds, ascending by priority
    index (index 0 = highest priority). For tests and introspection. *)

val pushups : t -> int
(** Admissions that raised a bank bound. *)

val pushdowns : t -> int
(** Unavoidable inversions that triggered the collective bound drop. *)
