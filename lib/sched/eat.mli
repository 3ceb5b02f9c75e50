(** Expected Arrival Time bookkeeping (paper eq. 37).

    [EAT(p^j) = max(A(p^j), EAT(p^{j-1}) + l^{j-1}/r^{j-1})], with
    [EAT(p^0) = -∞]: the arrival time the packet {e would} have had if
    the flow had sent at exactly its reserved rate. Virtual Clock
    stamps packets with [EAT + l/r]; Delay EDD assigns deadlines
    [EAT + d_f]; the Fair Airport rate regulator releases packets at
    their EAT; and all of the paper's delay guarantees (Theorems 4–9)
    are stated relative to it. *)

open Sfq_base

type t

val create : unit -> t

val on_arrival : t -> now:float -> flow:Packet.flow -> len:int -> rate:float -> float
(** EAT of the arriving packet; updates the flow's state. [len]/[rate]
    are the {e arriving} packet's, used as the floor for the next
    packet. *)

val reset_flow : t -> Packet.flow -> unit
