open Sfq_util
open Sfq_base
open Sfq_core
open Sfq_netsim

type point = { nflows : int; rate : float; delta_ms : float }

type sim_point = {
  nflows : int;
  rate : float;
  wfq_max_ms : float;
  sfq_max_ms : float;
  predicted_delta_ms : float;
}

type result = { closed_form : point list; simulated : sim_point list }

let capacity = 100.0e6
let pkt_len = 8 * 200 (* 200 bytes *)
let rates = [ 32.0e3; 64.0e3; 128.0e3; 256.0e3 ]
let flow_counts = [ 10; 20; 30; 40; 50; 60; 70; 80; 90 ]

let closed_form () =
  List.concat_map
    (fun rate ->
      List.map
        (fun nflows ->
          let delta =
            Bounds.wfq_sfq_delta_uniform ~len:(float_of_int pkt_len) ~rate ~nflows
              ~capacity
          in
          { nflows; rate; delta_ms = 1000.0 *. delta })
        flow_counts)
    rates

(* One tagged flow paced at its reservation; the other |Q|-1 flows are
   continuously backlogged and share the remaining capacity. *)
let simulate spec ~nflows ~rate =
  let tagged = 0 in
  let others = List.init (nflows - 1) (fun i -> i + 1) in
  let other_rate = (capacity -. rate) /. float_of_int (nflows - 1) in
  let weights = Weights.of_list ((tagged, rate) :: List.map (fun f -> (f, other_rate)) others) in
  let sim = Sim.create () in
  let server =
    Server.create sim ~name:"fig2a" ~rate:(Rate_process.constant capacity)
      ~sched:(Disc.make spec weights) ()
  in
  (* The tagged flow's worst residence time: its arrival stamps queue
     per-flow FIFO and are matched at departure. *)
  let arrivals = Queue.create () and worst = ref 0.0 in
  Server.on_inject server (fun p ->
      if p.Packet.flow = tagged then Queue.push (Sim.now sim) arrivals);
  Server.on_depart server (fun p ~start:_ ~departed ->
      if p.Packet.flow = tagged then
        worst := Float.max !worst (departed -. Queue.pop arrivals));
  let horizon = 0.5 in
  (* Backlogged competitors: enough packets to outlast the horizon. *)
  let backlog_pkts =
    int_of_float (capacity *. horizon /. float_of_int (pkt_len * (nflows - 1))) + 50
  in
  Sim.schedule sim ~at:0.0 (fun () ->
      List.iter
        (fun flow ->
          for seq = 1 to backlog_pkts do
            Server.inject server (Packet.make ~flow ~seq ~len:pkt_len ~born:0.0 ())
          done)
        others);
  ignore
    (Source.cbr sim ~target:(Server.inject server) ~flow:tagged ~len:pkt_len ~rate ~start:0.0
       ~stop:horizon);
  Sim.run sim ~until:(horizon +. 1.0);
  1000.0 *. !worst

let simulated ~quick =
  let points =
    if quick then [ (20, 64.0e3) ] else [ (10, 64.0e3); (30, 64.0e3); (50, 64.0e3); (50, 256.0e3) ]
  in
  List.map
    (fun (nflows, rate) ->
      let wfq_max_ms = simulate (Disc.Wfq { capacity }) ~nflows ~rate in
      let sfq_max_ms = simulate Disc.Sfq ~nflows ~rate in
      let predicted =
        Bounds.wfq_sfq_delta_uniform ~len:(float_of_int pkt_len) ~rate ~nflows ~capacity
      in
      { nflows; rate; wfq_max_ms; sfq_max_ms; predicted_delta_ms = 1000.0 *. predicted })
    points

let run ?(quick = false) () = { closed_form = closed_form (); simulated = simulated ~quick }

let print r =
  print_endline "== Fig 2(a): max-delay reduction of SFQ vs WFQ (eq. 59), ms ==";
  let t =
    Text_table.create
      ("flows" :: List.map (fun rate -> Printf.sprintf "%.0f Kb/s" (rate /. 1000.0)) rates)
  in
  List.iter
    (fun nflows ->
      let row =
        string_of_int nflows
        :: List.map
             (fun rate ->
               let p =
                 List.find
                   (fun (p : point) -> p.nflows = nflows && p.rate = rate)
                   r.closed_form
               in
               Text_table.cell_f ~decimals:2 p.delta_ms)
             rates
      in
      Text_table.add_row t row)
    flow_counts;
  Text_table.print t;
  print_endline "simulated cross-check (one paced flow among backlogged competitors):";
  let t2 =
    Text_table.create
      [ "flows"; "rate Kb/s"; "WFQ max delay ms"; "SFQ max delay ms"; "measured gap"; "eq.59 gap" ]
  in
  List.iter
    (fun p ->
      Text_table.add_row t2
        [
          string_of_int p.nflows;
          Printf.sprintf "%.0f" (p.rate /. 1000.0);
          Text_table.cell_f ~decimals:2 p.wfq_max_ms;
          Text_table.cell_f ~decimals:2 p.sfq_max_ms;
          Text_table.cell_f ~decimals:2 (p.wfq_max_ms -. p.sfq_max_ms);
          Text_table.cell_f ~decimals:2 p.predicted_delta_ms;
        ])
    r.simulated;
  Text_table.print t2;
  print_newline ()
