(* Hierarchical link sharing (§3): an ISP access link shared by two
   organizations, each running multiple service classes.

      root (45 Mb/s)
      ├── org A (weight 3)
      │   ├── A.realtime (weight 1, Delay EDD inside)
      │   └── A.bulk     (weight 2, FIFO inside)
      └── org B (weight 2)
          ├── B.web      (weight 1)
          └── B.bulk     (weight 1)

   Org B's traffic comes and goes; the hierarchy must (a) split the
   link 3:2 between the orgs while both are active, (b) give each org's
   classes their configured split of whatever the org currently holds,
   and (c) let an idle org's bandwidth flow to the other — all of which
   requires the intra-node scheduler to be fair at a fluctuating rate,
   i.e. SFQ (Example 3).

   Run with: dune exec examples/link_sharing.exe *)

open Sfq_util
open Sfq_core
open Sfq_netsim
open Sfq_analysis

let capacity = 45.0e6
let pkt_len = 8 * 1500

let () =
  let sim = Sim.create () in
  let h = Hsfq.create () in
  let org_a = Hsfq.add_class h ~parent:(Hsfq.root h) ~weight:3.0 in
  let org_b = Hsfq.add_class h ~parent:(Hsfq.root h) ~weight:2.0 in
  let fifo () = Sfq_sched.Fifo.sched (Sfq_sched.Fifo.create ()) in
  let a_rt =
    (* Real-time class: EDF inside, decoupling its delay from its
       throughput share (§3 "separation of delay and throughput"). *)
    Hsfq.add_leaf h ~parent:org_a ~weight:1.0
      Sfq_pifo.(
        Pifo_sched.sched
          (Pifo_sched.create
             (Programs.delay_edd_float
                [ (1, { Sfq_sched.Delay_edd.rate = 2.0e6; deadline = 0.005; max_len = pkt_len }) ])))
  in
  let a_bulk = Hsfq.add_leaf h ~parent:org_a ~weight:2.0 (fifo ()) in
  let b_web = Hsfq.add_leaf h ~parent:org_b ~weight:1.0 (fifo ()) in
  let b_bulk = Hsfq.add_leaf h ~parent:org_b ~weight:1.0 (fifo ()) in
  Hsfq.set_classifier h
    (Hsfq.classifier_by_flow [ (1, a_rt); (2, a_bulk); (3, b_web); (4, b_bulk) ]);

  let server = Server.create sim ~name:"access" ~rate:(Rate_process.constant capacity)
      ~sched:(Hsfq.sched h) () in
  let log = Service_log.attach server in

  (* Org A busy the whole run; org B only during [10, 20). *)
  let total = 1_000_000 in
  ignore
    (Source.cbr sim ~target:(Server.inject server) ~flow:1 ~len:pkt_len ~rate:2.0e6
       ~start:0.0 ~stop:30.0);
  ignore (Source.greedy sim ~server ~flow:2 ~len:pkt_len ~total ~window:8 ~start:0.0 ());
  let b_budget = int_of_float (0.4 *. capacity *. 10.0 /. float_of_int pkt_len) in
  ignore (Source.greedy sim ~server ~flow:3 ~len:pkt_len ~total:(b_budget / 2) ~window:8 ~start:10.0 ());
  ignore (Source.greedy sim ~server ~flow:4 ~len:pkt_len ~total:(b_budget / 2) ~window:8 ~start:10.0 ());
  Sim.run sim ~until:30.0;

  let share flow ~t1 ~t2 =
    Service_log.service log flow ~t1 ~t2 /. (capacity *. (t2 -. t1))
  in
  let table =
    Text_table.create
      [ "phase"; "A.rt"; "A.bulk"; "B.web"; "B.bulk"; "expectation" ]
  in
  let row label t1 t2 expectation =
    Text_table.add_row table
      [
        label;
        Text_table.cell_pct (share 1 ~t1 ~t2);
        Text_table.cell_pct (share 2 ~t1 ~t2);
        Text_table.cell_pct (share 3 ~t1 ~t2);
        Text_table.cell_pct (share 4 ~t1 ~t2);
        expectation;
      ]
  in
  row "B idle [0,10)" 0.5 9.5 "A.rt ~4.4% (its offered load), A.bulk takes the rest";
  row "B active [10,20)" 10.5 19.5 "orgs 3:2; inside B 50/50 of B's 40%";
  row "B idle again" 20.5 29.5 "A recovers the full link";
  print_endline "Hierarchical link sharing on a 45 Mb/s access link (org A : org B = 3 : 2)";
  Text_table.print table
