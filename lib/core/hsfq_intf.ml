(* The class tree's signatures, kept in one place so {!Hsfq}'s
   implementation and interface share them; documented in hsfq.mli. *)

open Sfq_base

module type KEY = sig
  val name : string (* prefix of every Invalid_argument text: "Hsfq" *)
  val sched_name : string (* the Sched.t's name: "hsfq" *)

  type codec (* per-tree state of the domain: a fixed-point scale, or unit *)
  type tag
  type scale (* per-edge constant, fixed when the edge is created *)

  val zero : tag
  val max : tag -> tag -> tag
  val lt : tag -> tag -> bool
  val scale : codec -> weight:float -> scale
  val finish : tag -> scale -> len:int -> tag
  val decode : codec -> tag -> float

  type 'a pifo

  val pifo : unit -> 'a pifo
  val add : 'a pifo -> tag -> seq:int -> 'a -> unit
  val min : 'a pifo -> 'a option
  val drop_min : 'a pifo -> unit
  val is_empty : 'a pifo -> bool
  val remove : 'a pifo -> ('a -> bool) -> unit (* the one element matching *)
end

module type TREE = sig
  type t
  type class_

  val root : t -> class_

  val add_class : t -> parent:class_ -> weight:float -> class_
  (** New internal class. @raise Invalid_argument if [parent] is a leaf
      or [weight <= 0]. *)

  val add_leaf : t -> parent:class_ -> weight:float -> Sched.t -> class_
  (** New leaf class with the given inner discipline. *)

  val set_classifier : t -> (Packet.t -> class_) -> unit
  (** Route packets to leaves. Required before the first [enqueue]. *)

  val classifier_by_flow : (Packet.flow * class_) list -> Packet.t -> class_
  (** Convenience classifier: flow-id table.
      @raise Not_found for an unlisted flow. *)

  val enqueue : t -> now:float -> Packet.t -> unit
  (** A leaf may drop on enqueue (a {!Sfq_base.Buffered} leaf, say):
      [size] counts what the leaf kept, not what it was offered.
      @raise Invalid_argument if no classifier is set, or if the
      classifier returns a non-leaf class or a class from another
      hierarchy. *)

  val dequeue : t -> now:float -> Packet.t option
  val peek : t -> Packet.t option
  val size : t -> int
  val backlog : t -> Packet.flow -> int
  val sched : t -> Sched.t

  val class_vtime : t -> class_ -> float
  (** Decoded virtual time of an internal class (0 for leaves). *)

  val class_id : t -> class_ -> int
  (** Stable small-int identity of a class: 0 for the root, then in
      creation order. Trace events use it as the class's track id.
      @raise Invalid_argument for a class of another hierarchy. *)
end
