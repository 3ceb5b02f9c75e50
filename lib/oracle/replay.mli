(** Schedule-replay universality harness (single hop).

    Mittal et al., "Universal Packet Scheduling" (NSDI '16) ask whether
    one discipline can {e replay} the schedule of any other: record the
    output time [o(p)] of every packet under some discipline, hand each
    packet the slack [o(p) − i(p) − tx(p)] and re-run the same arrivals
    under Least-Slack-Time-First — if the reproduced schedule matches
    packet-for-packet, LSTF is universal for that trace. At a single
    fixed-rate server the LSTF rank [o(p) − tx(p)] is exactly the
    packet's recorded service-start time, so every work-conserving
    recording replays (starts are distinct and increasing in service
    order); the interest is in the oracle machinery this buys: any
    discipline × any frozen workload becomes a directed test of any
    other discipline, with a structured divergence witness when replay
    fails.

    Recording goes through {!Sfq_analysis.Service_log}: the tap notes
    every completion, and per-flow FIFO (a {!Monitor.flow_fifo}
    invariant of every shipped discipline) makes the k-th completion of
    a flow its k-th packet, which is how completions are keyed back to
    [(flow, seq)] without threading uids through the log.

    Replay runs drive {!Run.fixed_rate}, so monitors attach exactly as
    in the acceptance sweeps ([?monitors]); restrictions: no churn (id
    reuse breaks the keying), no finite buffer (a dropped packet has no
    output time) and no server-rate fluctuation (the residual [len/C]
    presumes a constant rate) — {!Suite.theorem_pool} satisfies all
    three. *)

open Sfq_base

type key = { flow : int; seq : int }

type schedule
(** A recorded departure schedule: delivery order plus per-packet
    output times, at a known link capacity. *)

type witness = {
  index : int;  (** position in the departure stream, 0-based *)
  expected : key;  (** what the recorded schedule serves there *)
  got : key;  (** what the replay served ([{flow = -1; seq = -1}]
                  when the replay ran out of packets early) *)
  at : float;  (** service-start time of the divergence in the replay *)
  hop : int;  (** 0 at a single server; network replays report the
                  mismatching packet's path length *)
  margin : float;
      (** correct-rank(got) − correct-rank(expected): how much later
          the served packet's true latest-start deadline was — positive
          is a priority inversion, 0 a pure tie-break divergence *)
}

type verdict =
  | Replayed of int  (** packet-for-packet, with the departure count *)
  | Diverged of witness

type mutant =
  | Wrong_slack
      (** ranks by the ingress-assigned slack, never depleting it
          while queued (rank = deadline − residual − born) — i.e. the
          queueing slack accrued at the hop is omitted, so a late-born
          packet with a later output time can overtake *)
  | Priority_tie
      (** breaks the FIFO tie order among equal ranks (prefers the
          higher flow id); only crafted deadline tables can exhibit
          it — a serial recording's implied start times are distinct *)

val mutant_name : mutant -> string
(** ["lstf-wrong-slack"] / ["lstf-priority-tie"]. *)

val record : sched:Sched.t -> ?monitors:Monitor.t list -> Workload.t -> schedule
(** Run the workload against [sched] under {!Run.fixed_rate} and
    record the departure schedule.
    @raise Invalid_argument on churned, buffered or rate-fluctuating
    workloads (see above). *)

val of_table : capacity:float -> (key * float) list -> schedule
(** A hand-crafted schedule: departure order as listed, output times
    from the table. The directed mutant-kill cells use this to build
    targets (e.g. tied implied start times) that no honest serial
    recording can produce. *)

val output_time : schedule -> key -> float option
val order : schedule -> key array
val capacity : schedule -> float

val schedule_hash : schedule -> string
(** MD5 of the ["flow.seq"] departure order — the digest-table
    currency. *)

val lstf : ?mutant:mutant -> schedule -> Sched.t
(** The replaying scheduler: {!Sfq_pifo.Programs.lstf_float} on the
    PIFO runtime, with deadline =
    recorded output time and residual = [len/capacity]. A packet
    absent from the schedule raises [Invalid_argument] at enqueue.
    [mutant] seeds the corresponding defect instead. *)

val replay :
  sched:Sched.t -> ?monitors:Monitor.t list -> schedule -> Workload.t -> verdict
(** Re-run the workload's arrivals under [sched] and compare the
    departure stream against the schedule, packet-for-packet. Same
    workload restrictions as {!record}. *)

val replay_lstf : ?mutant:mutant -> schedule -> Workload.t -> verdict
(** [replay ~sched:(lstf ?mutant schedule) schedule w]. *)

val check : make:(unit -> Sched.t) -> Workload.t -> verdict
(** The round trip: record a fresh [make ()] on the workload, then
    {!replay_lstf}. [Replayed _] is the universality claim for this
    (discipline, trace) cell. *)

val verdict_digest : verdict -> string
(** One deterministic token, [%h] floats: ["replayed=N"] or
    ["diverged@i expected=f.s got=f.s at=... hop=... margin=..."]. *)

(** {1 Sweep cells} *)

type cell = { label : string; run : unit -> verdict }
(** [run] builds all mutable state when called — domain-local by
    construction, so cells fan over {!Sfq_par.Pool} like every other
    sweep. *)

val suite_cells : ?pool:Workload.t list -> ?limit:int -> unit -> cell list
(** One {!check} cell per (discipline × workload): sfq, scfq, vc, drr,
    edd, fifo, wf2q and pifo-sfq over [pool] (default
    {!Suite.theorem_pool}), the pool truncated to [limit] workloads
    when given. Every verdict must be [Replayed]. *)

val directed_kills : unit -> (mutant * string * (unit -> verdict * verdict)) list
(** The seeded-mutant cells: each thunk replays a crafted feasible
    schedule under correct LSTF (fst — must come back [Replayed]) and
    under the named mutant (snd — must come back [Diverged]).
    [Wrong_slack] dies on a crossing trace (an early-born packet with
    a late output time meets a late-born packet with a slightly
    earlier one); [Priority_tie] on a tied-rank table. *)
