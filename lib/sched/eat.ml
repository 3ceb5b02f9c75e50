open Sfq_base

(* Per flow we keep EAT(prev) + l_prev/r_prev, the floor for the next
   packet's EAT. *)
type t = { floor : float Flow_table.t }

let create () = { floor = Flow_table.create ~default:(fun _ -> neg_infinity) }

let on_arrival t ~now ~flow ~len ~rate =
  if rate <= 0.0 then invalid_arg "Eat.on_arrival: rate must be positive";
  let eat = Float.max now (Flow_table.find t.floor flow) in
  Flow_table.set t.floor flow (eat +. (float_of_int len /. rate));
  eat

let reset_flow t flow = Flow_table.remove t.floor flow
