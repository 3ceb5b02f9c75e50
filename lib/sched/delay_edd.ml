type flow_spec = { rate : float; deadline : float; max_len : int }

let check_spec (flow, { rate; deadline; max_len }) =
  if rate <= 0.0 || deadline <= 0.0 || max_len <= 0 then
    invalid_arg (Printf.sprintf "Delay_edd: invalid spec for flow %d" flow)

(* Eq. 67 demand, evaluated as a right-limit: the transmission time of
   packets of flow n that are due by [t + ε]. The demand function is a
   right-continuous step function that jumps at t = d_n + k·l_n/r_n;
   because the right-hand side of eq. 67 is increasing, checking the
   post-jump value at every jump point checks the whole line. *)
let demand_after specs ~capacity t =
  List.fold_left
    (fun acc (_, { rate; deadline; max_len }) ->
      let l = float_of_int max_len in
      if t < deadline -. 1e-12 then acc
      else begin
        let packets = Float.floor ((t -. deadline) *. rate /. l +. 1e-9) +. 1.0 in
        acc +. (packets *. l /. capacity)
      end)
    0.0 specs

let schedulable specs ~capacity ?horizon () =
  List.iter check_spec specs;
  if specs = [] then true
  else begin
    let utilization =
      List.fold_left (fun acc (_, s) -> acc +. s.rate) 0.0 specs /. capacity
    in
    if utilization >= 1.0 then false
    else begin
      let horizon =
        match horizon with
        | Some h -> h
        | None ->
          (* Past t*, demand(t) <= U*t + slack <= t by utilization < 1. *)
          let slack =
            List.fold_left (fun acc (_, s) -> acc +. (float_of_int s.max_len /. capacity)) 0.0 specs
          in
          slack /. (1.0 -. utilization)
      in
      let points =
        List.concat_map
          (fun (_, { rate; deadline; max_len }) ->
            let step = float_of_int max_len /. rate in
            let rec gen k acc =
              let t = deadline +. (float_of_int k *. step) in
              if t > horizon then acc else gen (k + 1) (t :: acc)
            in
            gen 0 [])
          specs
      in
      List.for_all (fun t -> demand_after specs ~capacity t <= t +. 1e-9) points
    end
  end
