(** Hierarchical SFQ link sharing (paper §3).

    A link-sharing structure is a tree of weighted classes. Each
    internal class runs SFQ over its children, treating every child as
    a flow whose "packets" are whatever the child's subtree emits next;
    leaf classes hold an arbitrary inner discipline ({!Sfq_base.Sched}),
    so a class can internally run SFQ, Delay EDD (for the
    delay/throughput separation of §3), FIFO, or anything else.
    Because SFQ is fair on variable-rate servers (Theorem 1 makes no
    assumption about capacity), each subtree sees a fair share of
    whatever fluctuating bandwidth its parent grants — Example 3's
    requirement — and by eq. 65 each virtual server is itself an
    FC/EBF server, so Theorems 2–5 apply at every level.

    Each internal class is a PIFO (Sivaraman et al.'s tree of PIFOs)
    of its active child edges, ordered by (start tag, activation seq).
    A dequeue pops the root's minimum edge, recurses into that child,
    and pushes the edge back if its subtree is still non-empty.

    Tag mechanics per child edge: on activation (subtree empty →
    non-empty) [S = max(v_parent, F_prev)]; when the child is selected,
    its emitted packet's length [l] fixes [F = S + l/w] and
    [v_parent <- S]; if the subtree stays non-empty the next emission
    gets [S' = F]. When a subtree empties, its parent's [v] stays at
    the emission's start tag; only the root, where the server really
    polls an empty queue, reverts [v] to the largest served finish tag
    when idle. An [evict] or [close_flow] that empties a subtree takes
    its edge out of the parent's PIFO, up to the root, and keeps its
    tags: a class that reopens enters at [max(v, F_prev)] (eq. 4).

    The tree is written once, as {!Make} over a key domain. This module
    is the float instance; {!Sfq_pifo.Pifo_tree}, beside the {!Sfq_pifo.Tag}
    codec it needs, is the fixed-point one. *)

module type KEY = Hsfq_intf.KEY
(** A key domain. Contract: [lt] is a strict total order on tags and
    [max] agrees with it; [finish s scale ~len] is [F = S + len/w] for
    the edge whose [scale] came from weight [w]; [decode] maps a tag to
    virtual-time units. A class PIFO pops the element with the smallest
    [(tag, seq)]; seqs are unique within one PIFO. *)

module type TREE = Hsfq_intf.TREE
(** What both instances offer. [Invalid_argument] texts start with the
    instance's [KEY.name]. *)

module Make (K : KEY) : sig
  include TREE

  val create : K.codec -> t

  type tag_hook =
    now:float -> class_id:int -> seq:int -> len:int -> stag:K.tag ->
    ftag:K.tag -> vtime:K.tag -> unit

  val set_tag_hook : t -> ?active:bool ref -> tag_hook -> unit
  val clear_tag_hook : t -> unit
end

(** {1 The float instance}

    Tags are floats, [F = S +. float len /. w], and each class PIFO is
    an {!Sfq_util.Fheap} keyed on (start tag, [0.], activation seq). *)

include TREE

val create : unit -> t

type tag_hook =
  now:float -> class_id:int -> seq:int -> len:int -> stag:float ->
  ftag:float -> vtime:float -> unit

val set_tag_hook : t -> ?active:bool ref -> tag_hook -> unit
(** Observe every child-edge emission, at any level: when an internal
    class selects a child, the hook fires with the child's {!class_id},
    the edge's emission sequence number, the emitted head packet's
    length, the edge's start tag, the finish tag it fixes
    ([F = S + l/w], §3) and the parent's v after the selection. Tags at
    {e activation} are not reported — their finish tag does not exist
    until emission; the emission event carries the authoritative pair.
    One hook per hierarchy (setting replaces). [active] (default:
    always) is dereferenced once per dequeue; pass
    [Sfq_obs.Tracer.active_flag] so a disabled tracer costs one load,
    not a hook call per level. *)

val clear_tag_hook : t -> unit
