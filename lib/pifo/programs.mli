(** The paper's disciplines as rank programs for {!Pifo_sched}.

    {b Float programs} ([*_float]) rank with real-valued tags on the
    runtime's float stores. They are the library's SCFQ, Virtual Clock,
    Delay EDD, FQS, WF²Q and LSTF, served by [Sfq_experiments.Disc]
    under their program names. [test_order_equiv] holds SCFQ, Virtual
    Clock, FQS and WF²Q to the frozen seed copies in
    [Sfq_sched.Ref_sched] under all three tie rules, and pins all six
    through dequeue, evict and close.

    {b Int programs} rank with {!Tag}-scaled ints on the int stores.
    [sfq], [scfq] and [virtual_clock] are also the engines behind the
    ["sfq-fast"], ["scfq-fast"] and ["vc-fast"] disciplines of
    [Sfq_experiments.Disc], and [sfq] over the bank store is
    ["sp-pifo"]. [fqs], [wf2q] and [lstf] are their float programs
    behind one quantising adapter that encodes every rank, aux,
    eligibility rank and horizon through the {!Tag} codec, so no GPS
    or LSTF rank logic is written twice. [test/test_pifo_equiv.ml]
    holds every int program to its float counterpart:
    packet-for-packet on dyadic workloads, outcome-digest over the
    frozen pools for the GPS-clocked ones.

    Quantization, rate-snapshot and saturation caveats are those of the
    fixed-point codec (see {!Tag} and {!Flow_state}). Tie-breaking
    ([Tag_queue.tie]) belongs to the runtime: pass it to
    {!Pifo_sched.create}. Flow ids must be [>= 0] (the runtime's
    admission check). *)

open Sfq_base

(** {1 Float programs} *)

val scfq_float : Weights.t -> Rank_program.t
(** Self-Clocked Fair Queuing (Golestani): rank = finish tag
    [max (v, F_prev) + l/r], [v] = the finish tag of the packet in
    service, the idle poll ends the busy period ([v] and every finish
    tag restart at 0). Fairness as SFQ's; a packet can wait
    [Σ_{n≠f} l_n^max / C] longer than under WFQ (eq. 56, the [scfq-gap]
    experiment). Prices every packet at the flow's reserved rate, read
    on every packet. {!Pifo_sched.vtime} is [v]. Name ["scfq"]. *)

val virtual_clock_float : Weights.t -> Rank_program.t
(** Virtual Clock (Zhang): rank = [EAT + l/r] (eq. 37). WFQ's delay
    guarantee but unfair: a flow that used idle bandwidth is locked out
    while competitors catch up (§1.1). Rate overrides replace the flow
    weight; closing forgets the EAT floor. Name ["virtual-clock"]. *)

val delay_edd_float :
  (Packet.flow * Sfq_sched.Delay_edd.flow_spec) list -> Rank_program.t
(** Delay Earliest-Due-Date over Fluctuation Constrained servers (§3,
    eqs. 66–68): packet [p_f^j] gets deadline [D = EAT(p_f^j) + d_f],
    earliest deadline first. Theorem 7: if the schedulability condition
    (eq. 67, {!Sfq_sched.Delay_edd.schedulable}) holds and the server
    is [(C, δ(C))]-FC, every packet departs by
    [D + l^max/C + δ(C)/C]. The paper runs Delay EDD inside a
    hierarchical SFQ class to decouple delay from throughput
    allocation, so it must work over variable-rate servers. Rate
    overrides replace the declared rate. The spec survives close; the
    EAT floor does not.
    @raise Invalid_argument on an invalid spec, or (at enqueue) on a
    packet of an undeclared flow (admission control declares flows up
    front). Name ["delay-edd"]. *)

val fqs_float : capacity:float -> Weights.t -> Rank_program.t
(** Fair Queuing based on Start-time (Greenberg & Madras): WFQ's fluid
    GPS tags at assumed [capacity], served by start tag (eq. 1) — SFQ's
    order with WFQ's clock and blind spot (§2.5). The fluid clock's
    busy-period guard is the runtime's size; evictions stay charged
    fluid-side, closing forgets the flow. Name ["fqs"]. *)

val wf2q_float : capacity:float -> Weights.t -> Rank_program.t
(** Worst-case Fair WFQ (Bennett & Zhang), a {e shaped} program:
    service rank = GPS finish tag, eligibility rank = GPS start tag,
    horizon = GPS virtual time + 1e-12. Only packets GPS has begun are
    eligible (no Example 1 bursts); the runtime serves the smallest
    start tag when none is (work conservation). Name ["wf2q"]. *)

val lstf_float :
  ?residual:(Packet.t -> float) -> deadline:(Packet.t -> float) -> unit -> Rank_program.t
(** Least-Slack-Time-First (Mittal et al., "Universal Packet
    Scheduling", NSDI '16). A packet's {e deadline} is when it should
    be delivered under some target schedule, its {e residual} the
    no-queueing time from starting service here to delivery. Least
    slack [deadline − residual − t] first is, at any instant, smallest
    [deadline − residual] first, so that static value (evaluated once,
    at enqueue) is the rank; [residual] defaults to [fun _ -> 0.0].
    With deadlines set to a recorded schedule's output times, LSTF
    replays it packet for packet ({!Sfq_oracle.Replay}, [Net_sweep]).
    Deadlines carry no ordering promise, so each flow's rank is clamped
    to a monotone floor (its last rank), keeping per-flow FIFO;
    eviction keeps the floor, closing forgets it. Ignores the weights.
    Name ["lstf"]. *)

(** {1 Int programs} *)

val sfq :
  ?busy_rule:Sfq_core.Sfq.busy_rule -> ?frac_bits:int -> Weights.t -> Rank_program.t
(** Start-time fair queueing, eqs. 4–5: rank = start tag
    [max (v, F_prev)]; [v] advances to the served start tag and never
    moves back (on the exact store the served tag is never below [v];
    on banks an inversion may serve a smaller one). Busy rule as in the
    float original (default [Idle_poll]). Honors per-packet rate
    overrides. Name ["pifo-sfq"]. *)

val scfq : ?frac_bits:int -> Weights.t -> Rank_program.t
(** Self-clocked fair queueing (eq. 56): rank = finish tag, [v] =
    finish tag in service, idle reset clears [v] and every per-flow
    finish tag. Ignores rate overrides. Name ["pifo-scfq"]. *)

val virtual_clock : ?frac_bits:int -> Weights.t -> Rank_program.t
(** Virtual Clock: rank = [max (now, EAT_floor) + len/rate], the floor
    advancing to the rank. Reads real time; no virtual clock to
    expose. Name ["pifo-vc"]. *)

val delay_edd :
  ?frac_bits:int -> (Packet.flow * Sfq_sched.Delay_edd.flow_spec) list -> Rank_program.t
(** Delay EDD: rank = [EAT + deadline] against each flow's declared
    spec; the spec is configuration and survives close, the EAT floor
    does not.
    @raise Invalid_argument on an invalid spec, or (at enqueue) on a
    packet of an undeclared flow. Name ["pifo-edd"]. *)

val lstf :
  ?frac_bits:int ->
  ?residual:(Packet.t -> float) ->
  deadline:(Packet.t -> float) ->
  unit ->
  Rank_program.t
(** {!lstf_float}, quantised. Name ["pifo-lstf"]. *)

val fqs : capacity:float -> ?frac_bits:int -> Weights.t -> Rank_program.t
(** {!fqs_float}, quantised. Name ["pifo-fqs"]. *)

val wf2q : capacity:float -> ?frac_bits:int -> Weights.t -> Rank_program.t
(** {!wf2q_float}, quantised: a shaped int program whose horizon is the
    encoded GPS virtual time. Name ["pifo-wf2q"]. *)
