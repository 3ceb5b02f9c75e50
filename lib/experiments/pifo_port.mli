(** E26: int rank-program ports vs their float originals.

    Replays one frozen dyadic scenario per discipline (rates and
    overrides from 100·2^k, lengths multiples of 100, quarter-step
    clocks) through both the float original (float [Sfq], a float rank
    program on the same runtime, or the float instance of the class
    tree) and its int port, and records the port's service order as an
    MD5 hash plus a packet-for-packet physical-identity flag. The golden
    corpus pins these rows: a quantization regression in the runtime
    or any port flips [identical] or moves the hash. *)

type row = {
  disc : string;  (** sfq | scfq | vc | edd | fqs | wf2q | hsfq *)
  departures : int;
  order_hash : string;  (** MD5 of the "flow.seq" service order *)
  identical : bool;  (** port == original, by physical packet identity *)
}

type result = { seed : int; rows : row list }

val hier :
  (module Sfq_core.Hsfq.TREE with type t = 't) ->
  't ->
  leaf:(Sfq_base.Weights.t -> Sfq_base.Sched.t) ->
  (int * float) list ->
  Sfq_base.Sched.t
(** [hier (module T) tree ~leaf weights] builds the [hsfq] row's
    two-level tree in [tree]: root{200: even flows, 100: odd flows},
    one leaf per flow at its rate, [leaf] given that flow's weight
    table. Either key domain of the class tree fits. *)

val run : ?seed:int -> unit -> result
val print : unit -> unit
