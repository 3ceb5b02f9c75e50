(** Delay Earliest-Due-Date admission (paper §3, eqs. 66–68): the
    per-flow declaration and the schedulability test (eq. 67). The
    scheduler itself is the rank program
    [Sfq_pifo.Programs.delay_edd_float] (deadline [EAT + d_f], earliest
    first; Theorem 7's delay bound holds when {!schedulable} does). *)

open Sfq_base

type flow_spec = {
  rate : float;  (** reserved rate r_f, bits/s *)
  deadline : float;  (** d_f, seconds *)
  max_len : int;  (** l_f^max, bits; used by the schedulability test *)
}

val schedulable : (Packet.flow * flow_spec) list -> capacity:float -> ?horizon:float -> unit -> bool
(** Eq. 67 checked at its critical points
    [t = d_n + k·l_n/r_n, k >= 0] up to [horizon] (default: the point
    past which the condition holds by a utilization argument; requires
    total utilization < 1, otherwise returns [false] unless the
    condition degenerates). *)
