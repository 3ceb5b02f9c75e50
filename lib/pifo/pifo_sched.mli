(** The shared PIFO runtime: one push-in-first-out queue serving any
    {!Rank_program}.

    The runtime owns everything that is {e not} discipline logic —
    which, per Alcoz & Vass et al. ("Everything Matters in Programmable
    Packet Scheduling"), is where scheduler correctness actually
    lives: admission (flow-id validation; int ranks clamp at the {!Tag}
    saturation rail — they saturate, never wrap), FIFO-stable tie
    resolution (the [(key, tie, uid)] contract of the stores), the
    evict/close lifecycle, and the optional two-stage shaper for
    {!Rank_program.t.shaped} disciplines.

    It is the library's engine for every discipline but float SFQ, WFQ
    and the class hierarchies: [Sfq_experiments.Disc] serves
    ["scfq"], ["virtual-clock"], ["delay-edd"], ["fqs"], ["wf2q"] and
    ["lstf"] as the {!Programs} float programs on the float stores, and
    ["sfq-fast"], ["scfq-fast"], ["vc-fast"] and ["sp-pifo"] as int
    programs on the int stores.

    The store follows from the program's {!Rank_program.keys},
    {!Rank_program.t.shaped} and [~banks], and is fixed at {!create}:
    - exact int (unshaped [Int]): a single {!Sfq_sched.Iflow_heap}
      (per-flow FIFO rings, heads-only int heap), serving in exact
      [(rank, tie, uid)] order. [enqueue]/[dequeue_exn] allocate
      nothing in steady state — the rank call is closure dispatch with
      int arguments, per-packet outputs travel through the program's
      pre-allocated {!Rank_program.regs} cell.
    - banked int ([~banks]): SP-PIFO's strict-priority FIFO banks
      ({!Sp_pifo}), an approximate store — the served rank may be
      below one served earlier. Same zero-allocation contract.
    - shaped int: packets wait in a shaper [Iflow_heap] keyed by
      eligibility rank and move to a service {!Sfq_util.Iheap} keyed by
      service rank once the program's horizon passes their eligibility
      — carrying their original arrival uid, so ties resolve exactly as
      in a single two-stage heap. When nothing is eligible the earliest
      eligibility rank is served instead (work conservation).
    - exact float (unshaped [Float]): a single {!Sfq_sched.Flow_heap}
      ordered by the float [(rank, tie, uid)].
    - shaped float: a {!Sfq_sched.Flow_heap} shaper feeding a
      {!Sfq_util.Fheap} service stage, by the int shaper's rules.
    Int and float stores share the tie rule, the lifecycle and the
    shaper rules; a float tie value is the rule's own float (evaluated
    per push, as the float stores always did), an int one its
    {!Tag.tie_encode} image cached per flow activation.

    Eviction removes packets without rolling tags back (the flow keeps
    its virtual-time charge, eq. 4); closing flushes the flow, resets
    the runtime's tie cache and then hands the flow id to the
    program's [on_close]. *)

open Sfq_base

type t

val create : ?tie:Sfq_sched.Tag_queue.tie -> ?banks:int -> Rank_program.t -> t
(** Build a runtime instance around a rank program. [tie] refines
    ordering among equal ranks of different flows (default
    [Arrival]); [banks] selects the SP-PIFO bank store with that many
    banks instead of the exact store. Calls the program's [attach]
    hook with this instance's [size] thunk.
    @raise Invalid_argument if [banks < 1], or if [banks] is given
    with a float program, a shaped program or a tie other than
    [Arrival]. *)

val enqueue : t -> now:float -> Packet.t -> unit
(** Rank and admit one packet.
    @raise Invalid_argument if [pkt.flow < 0]. *)

val dequeue : t -> now:float -> Packet.t option
(** Serve the smallest [(rank, tie, uid)] entry; [None] (after firing
    the program's [on_idle] busy-period hook) when empty. *)

val dequeue_exn : t -> Packet.t
(** Dequeue for callers that already know the queue is non-empty
    (pair with {!is_empty}), non-allocating on the int stores; shaped
    programs promote against
    the last observed clock. @raise Invalid_argument if empty. *)

val peek : t -> Packet.t option
val size : t -> int
val is_empty : t -> bool
val backlog : t -> Packet.flow -> int

val evict : t -> Sched.victim -> Packet.flow -> Packet.t option
val close_flow : t -> now:float -> Packet.flow -> Packet.t list

val vtime : t -> float
(** The program's decoded virtual time (0 for clockless programs). *)

val high_tag : t -> int
(** Largest (clamped) rank ever admitted, or, on unshaped programs,
    the largest (clamped) [regs.aux] if that is larger — SFQ's finish
    tag. Always 0 for float programs, which have no rail. *)

val saturated : t -> bool
(** Has {!high_tag} hit the {!Tag.max_tag} rail? From then on the
    program's order may have degraded to (tie, arrival); see {!Tag}
    for the per-flow headroom. *)

val banks : t -> Sp_pifo.t option
(** The bank store of a [~banks] instance, for its introspection
    ({!Sp_pifo.bounds}, {!Sp_pifo.pushups}, ...); [None] otherwise. *)

val sched : t -> Sched.t
(** The full {!Sched.t} surface under the program's name, so [Disc],
    the netsim server, sweeps, tracing and [Buffered] work unchanged.
    The closures are picked once from the store and
    {!Rank_program.t.shaped}: the exact view never tests for the
    shaper, the banks or the key domain. Its [dequeue]
    pays the [Some] box; the zero-allocation contract applies to
    {!enqueue} and {!dequeue_exn}. *)
