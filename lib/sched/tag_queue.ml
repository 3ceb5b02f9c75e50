open Sfq_base

type tie = Arrival | Low_rate of (Packet.flow -> float) | High_rate of (Packet.flow -> float)

(* The tie rule collapses to one float per flow, compared ascending:
   weights are positive, so [<] on them (or on their negation for
   High_rate) agrees exactly with the closure comparators the seed
   implementation evaluated on every sift step. Evaluated once per
   push; weight functions are fixed for the life of a queue. *)
let tie_value tie flow =
  match tie with
  | Arrival -> 0.0
  | Low_rate w -> w flow
  | High_rate w -> -.w flow
