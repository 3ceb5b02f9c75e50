(** Multi-node networks: nodes, directed links, static per-flow routes —
    the "network of servers" setting of §2.4, where each hop is an
    output link with its own scheduler and rate process. Chains (the
    K-server tandem of Corollary 1), the paper's Fig. 1(a) topology
    (three hosts, a switch and a sink) and the {!Topo} shapes are all
    built here.

    Each directed link owns a {!Server} (the output queue of its source
    node) plus a propagation delay. Forwarding is per-flow source
    routing: {!route} resolves the flow's node path once into its array
    of links; when a packet finishes service on one of them it is
    injected, after that link's propagation delay, into the next link
    of its route, or delivered when the route ends. Traffic injected
    straight into a link's server without a route (hop-local cross
    traffic) leaves the network at that link. *)

open Sfq_base

type t
type node

val create : Sim.t -> t
val add_node : t -> string -> node
(** @raise Invalid_argument on a duplicate name. *)

val link :
  t -> src:node -> dst:node -> rate:Rate_process.t -> sched:Sched.t ->
  ?prop_delay:float -> ?flow_buffer_limit:int -> ?buffer:Buffered.config ->
  unit -> Server.t
(** Create the directed link src→dst and return its server (for
    attaching traces, handlers, priority traffic). [buffer] is the
    link's finite switch memory ({!Server.create}'s admission gate);
    [flow_buffer_limit] is the per-flow drop-tail shorthand.
    @raise Invalid_argument if the link already exists or
    [prop_delay < 0]. *)

val server : t -> src:node -> dst:node -> Server.t
(** @raise Not_found if no such link. *)

val route : t -> flow:Packet.flow -> node list -> unit
(** Set the flow's path. Every consecutive pair must be linked.
    @raise Invalid_argument on a path shorter than 2 nodes or with a
    missing link. *)

val unroute : t -> flow:Packet.flow -> unit
(** Forget the flow's path (no-op when absent). Part of the flow-id
    recycling contract ({!Sfq_base.Flow_registry}): a closed id's route
    must not leak, and must not be visible to a later flow that reuses
    the id. Only call once the flow has no packets in flight — a packet
    between hops whose route has vanished would be dropped silently,
    breaking the conservation law the property tests check. *)

val inject : t -> Packet.t -> unit
(** Send a packet down its flow's route from the first node.
    @raise Invalid_argument if the flow has no route. *)

val on_delivered : t -> (Packet.t -> at:float -> unit) -> unit
(** Fires when a packet completes its route (after the last link's
    service and propagation). *)

val delivered : t -> int

val injected : t -> int
(** Total {!inject} calls — the left-hand side of the network-wide
    conservation law
    [injected = delivered + dropped + closed + in-flight]. *)
