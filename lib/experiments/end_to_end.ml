open Sfq_util
open Sfq_base
open Sfq_core
open Sfq_netsim

type point = { k : int; measured_max_ms : float; bound_ms : float }
type result = { points : point list }

let capacity = 1.0e6
let pkt_len = 8 * 250
let flow = 0
let flow_rate = 100.0e3
let sigma = 4.0 *. float_of_int pkt_len
let cross_per_hop = 3
let prop_delay = 0.001
let duration = 30.0

let run_k ~k ~seed =
  let sim = Sim.create () in
  (* Cross-traffic flows are distinct per hop: ids 100*h + i. *)
  let weights =
    Weights.of_fun (fun f ->
        if f = flow then flow_rate else (capacity -. flow_rate) /. float_of_int cross_per_hop)
  in
  (* A line of k links with propagation between hops. Only the tagged
     flow is routed; cross traffic is unrouted, so it exits at its own
     hop. *)
  let net = Net.create sim in
  let nodes = Array.init (k + 1) (fun h -> Net.add_node net (Printf.sprintf "n%d" h)) in
  let servers =
    List.init k (fun h ->
        Net.link net ~src:nodes.(h) ~dst:nodes.(h + 1)
          ~rate:(Rate_process.constant capacity)
          ~sched:(Disc.make Disc.Sfq weights)
          ~prop_delay:(if h < k - 1 then prop_delay else 0.0)
          ())
  in
  Net.route net ~flow (Array.to_list nodes);
  (* Backlogged cross traffic at every hop. *)
  List.iteri
    (fun h server ->
      for i = 1 to cross_per_hop do
        ignore
          (Source.greedy sim ~server ~flow:((100 * (h + 1)) + i) ~len:pkt_len
             ~total:1_000_000 ~window:4 ~start:0.0 ())
      done)
    servers;
  ignore seed;
  let worst = ref 0.0 in
  Net.on_delivered net (fun p ~at -> worst := Float.max !worst (at -. p.Packet.born));
  ignore
    (Source.leaky_bucket sim ~target:(Net.inject net) ~flow ~len:pkt_len ~sigma
       ~rho:flow_rate ~flush_every:0.05 ~start:0.0 ~stop:duration);
  Sim.run sim ~until:(duration +. 2.0);
  !worst

let bound ~k =
  let len = float_of_int pkt_len in
  let beta =
    Bounds.sfq_beta
      ~sum_other_lmax:(float_of_int (cross_per_hop * pkt_len))
      ~len ~capacity ~delta:0.0
  in
  let betas = List.init k (fun _ -> beta) in
  let taus = List.init (Stdlib.max 0 (k - 1)) (fun _ -> prop_delay) in
  Bounds.e2e_delay_leaky_bucket ~sigma ~rate:flow_rate ~betas ~taus

let run ?(seed = 13) () =
  let points =
    List.map
      (fun k ->
        { k; measured_max_ms = 1000.0 *. run_k ~k ~seed; bound_ms = 1000.0 *. bound ~k })
      [ 1; 2; 3; 4; 5 ]
  in
  { points }

let print r =
  print_endline
    "== Corollary 1: end-to-end delay, leaky-bucket flow through K SFQ servers ==";
  let t = Text_table.create [ "K servers"; "measured max ms"; "bound ms (eq. 115)" ] in
  List.iter
    (fun p ->
      Text_table.add_row t
        [
          string_of_int p.k;
          Text_table.cell_f ~decimals:2 p.measured_max_ms;
          Text_table.cell_f ~decimals:2 p.bound_ms;
        ])
    r.points;
  Text_table.print t;
  print_endline "(measured must stay below the bound; both grow roughly linearly in K.)";
  print_newline ()
