open Sfq_util
open Sfq_core
open Sfq_netsim
open Sfq_analysis

type shares = { c : float; d : float; b : float }
type result = { phase1 : shares; phase2 : shares; phase3 : shares }

let flow_c = 1
let flow_d = 2
let flow_b = 3
let pkt_len = 8 * 500

let run ?(capacity = 1.0e6) ?(duration = 30.0) () =
  let sim = Sim.create () in
  let h = Hsfq.create () in
  let class_a = Hsfq.add_class h ~parent:(Hsfq.root h) ~weight:1.0 in
  let fifo_leaf parent =
    Hsfq.add_leaf h ~parent ~weight:1.0 (Sfq_sched.Fifo.sched (Sfq_sched.Fifo.create ()))
  in
  let leaf_b = fifo_leaf (Hsfq.root h) in
  let leaf_c = fifo_leaf class_a in
  let leaf_d = fifo_leaf class_a in
  Hsfq.set_classifier h
    (Hsfq.classifier_by_flow [ (flow_c, leaf_c); (flow_d, leaf_d); (flow_b, leaf_b) ]);
  let server =
    Server.create sim ~name:"link" ~rate:(Rate_process.constant capacity) ~sched:(Hsfq.sched h)
      ()
  in
  let log = Service_log.attach server in
  (* C and D backlogged throughout: paced slightly above their best-case
     share would starve the queue model, so use greedy windows. *)
  let total = int_of_float (capacity *. duration /. float_of_int pkt_len) + 100 in
  ignore (Source.greedy sim ~server ~flow:flow_c ~len:pkt_len ~total ~window:4 ~start:0.0 ());
  ignore (Source.greedy sim ~server ~flow:flow_d ~len:pkt_len ~total ~window:4 ~start:0.0 ());
  let third = duration /. 3.0 in
  (* B's budget equals its fair share (50%) over the middle third, so
     it terminates at roughly 2/3 of the run. *)
  ignore
    (Source.greedy sim ~server ~flow:flow_b ~len:pkt_len
       ~total:(int_of_float (0.5 *. capacity *. third /. float_of_int pkt_len))
       ~window:4 ~start:third ());
  Sim.run sim ~until:duration;
  let share flow ~t1 ~t2 = Service_log.service log flow ~t1 ~t2 /. (capacity *. (t2 -. t1)) in
  let phase ~t1 ~t2 =
    { c = share flow_c ~t1 ~t2; d = share flow_d ~t1 ~t2; b = share flow_b ~t1 ~t2 }
  in
  (* Trim phase edges to avoid boundary effects of B's start/stop. *)
  let eps = 0.5 in
  {
    phase1 = phase ~t1:0.0 ~t2:(third -. eps);
    phase2 = phase ~t1:(third +. eps) ~t2:((2.0 *. third) -. eps);
    phase3 = phase ~t1:((2.0 *. third) +. eps) ~t2:(duration -. eps);
  }

let print r =
  print_endline "== Example 3: hierarchical link sharing (root{A{C,D},B}, all weights 1) ==";
  let t =
    Text_table.create [ "phase"; "C share"; "D share"; "B share"; "expected C/D/B" ]
  in
  let row label s expect =
    Text_table.add_row t
      [
        label;
        Text_table.cell_pct s.c;
        Text_table.cell_pct s.d;
        Text_table.cell_pct s.b;
        expect;
      ]
  in
  row "B idle" r.phase1 "50% / 50% / 0%";
  row "B active" r.phase2 "25% / 25% / 50%";
  row "B idle again" r.phase3 "50% / 50% / 0%";
  Text_table.print t;
  print_newline ()
