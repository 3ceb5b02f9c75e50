open Sfq_util
open Sfq_base
open Sfq_core
open Sfq_netsim

type tail_point = { gamma_ms : float; empirical : float; bound : float }
type result = { k : int; base_ms : float; points : tail_point list; violations : int }

let capacity = 1.0e6
let pkt_len = 8 * 250
let flow = 0
let rho = 100.0e3
let sigma = 4.0 *. float_of_int pkt_len
let cross_per_hop = 2
let prop_delay = 0.001
let duration = 60.0

let beta =
  Bounds.sfq_beta
    ~sum_other_lmax:(float_of_int (cross_per_hop * pkt_len))
    ~len:(float_of_int pkt_len) ~capacity ~delta:0.0

(* Least-squares exponential-tail fit of per-hop slack samples:
   survival(γ) ≈ B e^{−λγ}. The fitted curve is then inflated so it
   upper-bounds every empirical survival point — eq. 62 needs a valid
   per-hop envelope, not a best fit. *)
let fit_tail slacks =
  let n = Array.length slacks in
  let sorted = Array.copy slacks in
  Array.sort compare sorted;
  let survival g =
    let rec count i acc = if i < 0 || sorted.(i) <= g then acc else count (i - 1) (acc + 1) in
    float_of_int (count (n - 1) 0) /. float_of_int n
  in
  let gmax = sorted.(n - 1) in
  let grid = List.init 10 (fun i -> float_of_int (i + 1) /. 12.0 *. Float.max gmax 1e-6) in
  let pts =
    List.filter_map
      (fun g ->
        let s = survival g in
        if s > 0.0 then Some (g, log s) else None)
      grid
  in
  match pts with
  | [] | [ _ ] -> (1.0, 1.0e9, survival) (* essentially no tail *)
  | _ ->
    let m = float_of_int (List.length pts) in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
    let slope = ((m *. sxy) -. (sx *. sy)) /. Float.max ((m *. sxx) -. (sx *. sx)) 1e-30 in
    let lambda = Float.max (-.slope) 1e-3 in
    let b0 = exp ((sy +. (lambda *. sx)) /. m) in
    (* Inflate B until the envelope dominates every sampled point. *)
    let b =
      List.fold_left
        (fun b g ->
          let s = survival g in
          if s > b *. exp (-.lambda *. g) then s /. exp (-.lambda *. g) else b)
        b0 grid
    in
    (Float.max b 1e-12, lambda, survival)

let run ?(seed = 29) ?(k = 3) () =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let weights =
    Weights.of_fun (fun f ->
        if f = flow then rho else (capacity -. rho) /. float_of_int cross_per_hop)
  in
  (* A line of k links; cross traffic is unrouted and exits at its own
     hop, only the tagged flow rides the whole line. *)
  let net = Net.create sim in
  let nodes = Array.init (k + 1) (fun h -> Net.add_node net (Printf.sprintf "n%d" h)) in
  let servers =
    List.init k (fun h ->
        Net.link net ~src:nodes.(h) ~dst:nodes.(h + 1)
          ~rate:(Rate_process.ebf ~c:capacity ~scale:(0.2 *. capacity) ~seg:0.01 ~rng:(Rng.split rng))
          ~sched:(Disc.make Disc.Sfq weights)
          ~prop_delay:(if h < k - 1 then prop_delay else 0.0)
          ())
  in
  Net.route net ~flow (Array.to_list nodes);
  List.iter
    (fun server ->
      for i = 1 to cross_per_hop do
        ignore
          (Source.greedy sim ~server ~flow:(100 + i) ~len:pkt_len ~total:1_000_000 ~window:4
             ~start:0.0 ())
      done)
    servers;
  (* Per-hop EAT chains (eq. 37 at each server) and slack samples. *)
  let hop_slacks = Array.init k (fun _ -> Vec.create ()) in
  let eat1 = Hashtbl.create 4096 in
  List.iteri
    (fun h server ->
      let eat = Sfq_sched.Eat.create () in
      let eat_of = Hashtbl.create 256 in
      Server.on_inject server (fun p ->
          if p.Packet.flow = flow then begin
            let e =
              Sfq_sched.Eat.on_arrival eat ~now:(Sim.now sim) ~flow ~len:p.Packet.len
                ~rate:rho
            in
            Hashtbl.replace eat_of p.Packet.seq e;
            if h = 0 then Hashtbl.replace eat1 p.Packet.seq e
          end);
      Server.on_depart server (fun p ~start:_ ~departed ->
          if p.Packet.flow = flow then begin
            match Hashtbl.find_opt eat_of p.Packet.seq with
            | None -> ()
            | Some e -> Vec.push hop_slacks.(h) (departed -. e -. beta)
          end))
    servers;
  (* End-to-end slack beyond the deterministic base. *)
  let base_from_eat1 =
    (float_of_int k *. beta) +. (float_of_int (k - 1) *. prop_delay)
  in
  let e2e_slacks = Vec.create () in
  Net.on_delivered net (fun p ~at ->
      match Hashtbl.find_opt eat1 p.Packet.seq with
      | None -> ()
      | Some e1 -> Vec.push e2e_slacks (at -. e1 -. base_from_eat1));
  ignore
    (Source.leaky_bucket sim ~target:(Net.inject net) ~flow ~len:pkt_len ~sigma
       ~rho ~flush_every:0.05 ~start:0.0 ~stop:duration);
  Sim.run sim ~until:(duration +. 2.0);
  (* Fit per-hop envelopes and compose per Corollary 1. *)
  let fits = Array.map (fun v -> fit_tail (Vec.to_array v)) hop_slacks in
  let sum_b = Array.fold_left (fun acc (b, _, _) -> acc +. b) 0.0 fits in
  let inv_lambda = Array.fold_left (fun acc (_, l, _) -> acc +. (1.0 /. l)) 0.0 fits in
  let e2e = Vec.to_array e2e_slacks in
  let n = Array.length e2e in
  Array.sort compare e2e;
  let empirical g =
    let rec count i acc = if i < 0 || e2e.(i) <= g then acc else count (i - 1) (acc + 1) in
    float_of_int (count (n - 1) 0) /. float_of_int n
  in
  let gmax = if n = 0 then 0.01 else Float.max e2e.(n - 1) 1e-4 in
  let points =
    List.init 8 (fun i ->
        let g = float_of_int (i + 1) /. 8.0 *. (1.5 *. gmax) in
        {
          gamma_ms = 1000.0 *. g;
          empirical = empirical g;
          bound = Bounds.ebf_tail ~b:sum_b ~alpha:(1.0 /. inv_lambda) ~gamma:g;
        })
  in
  let violations =
    List.length (List.filter (fun p -> p.bound < 1.0 && p.empirical > p.bound +. 1e-9) points)
  in
  {
    k;
    base_ms = 1000.0 *. ((sigma /. rho) +. base_from_eat1);
    points;
    violations;
  }

let print r =
  Printf.printf
    "== Theorem 5 / Corollary 1 (EBF): end-to-end tail through %d EBF servers ==\n" r.k;
  Printf.printf "deterministic base (sigma/rho + K*beta + taus): %.2f ms\n" r.base_ms;
  let t = Text_table.create [ "gamma ms"; "empirical P(slack>gamma)"; "composed bound" ] in
  List.iter
    (fun p ->
      Text_table.add_row t
        [
          Text_table.cell_f ~decimals:2 p.gamma_ms;
          Printf.sprintf "%.4f" p.empirical;
          Printf.sprintf "%.4f" (Float.min p.bound 1.0);
        ])
    r.points;
  Text_table.print t;
  Printf.printf "bound violations (where informative): %d\n\n" r.violations
