(* Fairness over a variable-rate server — the property that sets SFQ
   apart (Theorem 1 holds with no assumption on capacity).

   The "link" models a shared wireless channel: its realizable rate
   wanders between 2 and 10 Mb/s (a Fluctuation Constrained process).
   Three stations with weights 1:1:2 are always backlogged. For each
   discipline the example prints the received throughput split and the
   empirical fairness index vs Theorem 1's bound.

   Run with: dune exec examples/variable_rate_fairness.exe *)

open Sfq_base
open Sfq_util
open Sfq_netsim
open Sfq_analysis

let duration = 30.0
let pkt_len = 8 * 1000
let rates = [ (1, 1.0e6); (2, 1.0e6); (3, 2.0e6) ]
let weights = Weights.of_list rates

let channel seed =
  Rate_process.fc_random ~c:6.0e6 ~delta:(float_of_int (20 * pkt_len)) ~seg:0.02
    ~spread:4.0e6 ~rng:(Rng.create seed)

let run (name, sched) =
  let sim = Sim.create () in
  let server = Server.create sim ~name ~rate:(channel 9) ~sched () in
  let log = Service_log.attach server in
  List.iter
    (fun (flow, _) ->
      ignore
        (Source.greedy sim ~server ~flow ~len:pkt_len ~total:1_000_000 ~window:8 ~start:0.0 ()))
    rates;
  Sim.run sim ~until:duration;
  let tput flow = Service_log.service log flow ~t1:0.0 ~t2:duration /. duration /. 1.0e6 in
  let h = Fairness.max_pairwise_h log ~rates ~until:duration ~exact:false in
  (name, tput 1, tput 2, tput 3, h)

let pifo prog = Sfq_pifo.Pifo_sched.(sched (create prog))

let () =
  let l = float_of_int pkt_len in
  let bound = Sfq_core.Bounds.h_sfq ~lmax_f:l ~r_f:1.0e6 ~lmax_m:l ~r_m:1.0e6 in
  let disciplines =
    [
      ("SFQ", Sfq_core.Sfq.sched (Sfq_core.Sfq.create weights));
      ("WFQ(6Mb/s assumed)", Sfq_sched.Wfq.sched (Sfq_sched.Wfq.create ~capacity:6.0e6 weights));
      ("SCFQ", pifo (Sfq_pifo.Programs.scfq_float weights));
      ("DRR", Sfq_sched.Drr.sched (Sfq_sched.Drr.create ~quantum:(l /. 1.0e6) weights));
      ("VirtualClock", pifo (Sfq_pifo.Programs.virtual_clock_float weights));
    ]
  in
  let table =
    Text_table.create
      [ "discipline"; "sta1 Mb/s"; "sta2 Mb/s"; "sta3 Mb/s"; "H (s)"; "Thm 1 bound (s)" ]
  in
  List.iter
    (fun d ->
      let name, t1, t2, t3, h = run d in
      Text_table.add_row table
        [
          name;
          Text_table.cell_f ~decimals:2 t1;
          Text_table.cell_f ~decimals:2 t2;
          Text_table.cell_f ~decimals:2 t3;
          Printf.sprintf "%.4f" h;
          Printf.sprintf "%.4f" bound;
        ])
    disciplines;
  print_endline
    "Three always-backlogged stations (weights 1:1:2) on a 2-10 Mb/s wireless channel:";
  Text_table.print table;
  print_endline "(all work-conserving disciplines split 1:1:2 over long windows;\n\
                 the H column shows who also keeps short windows fair.)"
