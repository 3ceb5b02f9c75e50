(** Hierarchical SFQ as a tree of PIFOs, in {!Tag} fixed point.

    The fixed-point instance of {!Sfq_core.Hsfq.Make}: the float
    {!Sfq_core.Hsfq}'s class tree, tag rules and lifecycle, with tags
    and class virtual times as scaled ints and each class PIFO an
    {!Sfq_util.Iheap} keyed on (tag, activation seq). The finish step
    is [F = Tag.sat_add S (Tag.delta ~sor ~len)], [sor = Tag.scale / w]
    fixed when the edge is created. On dyadic workloads the tags are
    exact and the service order matches the float tree packet for
    packet. [Invalid_argument] texts start with ["Pifo_tree"]; the
    scheduler is named ["pifo-hsfq"]. Leaves hold any inner
    {!Sfq_base.Sched.t}, in the HSFQ composition {!Pifo_sched}
    instances running {!Programs.sfq}. *)

include Sfq_core.Hsfq.TREE

val create : ?frac_bits:int -> unit -> t
(** [frac_bits] as in {!Tag.make} (default 20). *)
