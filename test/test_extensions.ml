(* Tests for the extension modules: WF2Q, the leaky-bucket shaper,
   admission control, and the two extra experiments (priority residual,
   tie-break ablation). *)

open Sfq_base
open Sfq_core
open Sfq_sched
open Sfq_netsim
module Pifo_sched = Sfq_pifo.Pifo_sched
module Programs = Sfq_pifo.Programs

let pifo prog = Pifo_sched.sched (Pifo_sched.create prog)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let pkt ~flow ~seq ~len () = Packet.make ~flow ~seq ~len ~born:0.0 ()
let flow_seq p = (p.Packet.flow, p.Packet.seq)

(* ------------------------------------------------------------------ *)
(* WF2Q                                                                 *)

let test_wf2q_eligibility () =
  (* Two packets of a weight-1 flow at t=0 on assumed capacity 1:
     S = 0 and 10. At t=0 only the first is eligible; WFQ would send
     either (same F order), but WF2Q must not send the second before
     the fluid system reaches its start tag. A competing flow's packet
     with larger F but eligible S goes first. *)
  let w = Weights.uniform 1.0 in
  let s = Pifo_sched.create (Programs.wf2q_float ~capacity:1.0 w) in
  Pifo_sched.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:10 ());
  Pifo_sched.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:2 ~len:10 ());
  Pifo_sched.enqueue s ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:15 ());
  (* F tags: 1.1 -> 10; 1.2 -> 20; 2.1 -> 15. At v=0, eligible = {1.1
     (S=0), 2.1 (S=0)}: minimum F among them is 1.1. Then 2.1 (F=15)
     must precede 1.2 (F=20) even though WFQ ties differently: 1.2
     becomes eligible only at v=10. *)
  let a = Pifo_sched.dequeue s ~now:0.0 in
  let b = Pifo_sched.dequeue s ~now:0.0 in
  let c = Pifo_sched.dequeue s ~now:0.0 in
  check_bool "first" true (match a with Some p -> flow_seq p = (1, 1) | None -> false);
  check_bool "eligible F order" true (match b with Some p -> flow_seq p = (2, 1) | None -> false);
  check_bool "last" true (match c with Some p -> flow_seq p = (1, 2) | None -> false)

let test_wf2q_work_conserving () =
  (* A packet whose start tag is in the fluid future must still be
     served rather than idling the server. *)
  let w = Weights.uniform 1.0 in
  let s = Pifo_sched.create (Programs.wf2q_float ~capacity:1.0 w) in
  Pifo_sched.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:10 ());
  ignore (Pifo_sched.dequeue s ~now:0.0);
  Pifo_sched.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:2 ~len:10 ());
  (* S(1.2) = 10 > v(0) = 0: not eligible, but nothing else queued. *)
  check_bool "served anyway" true (Pifo_sched.dequeue s ~now:0.0 <> None)

let test_wf2q_no_example1_burst () =
  (* Example 1's workload: WFQ serves m's full backlog inside a window
     where f gets nothing; WF2Q's eligibility forbids the m burst. *)
  let w = Weights.uniform 1.0 in
  let run_disc make =
    let s = make () in
    List.iter
      (fun (flow, seq, len) -> s.Sched.enqueue ~now:0.0 (pkt ~flow ~seq ~len ()))
      [ (1, 1, 9999); (1, 2, 10000); (2, 1, 10000); (2, 2, 4999); (2, 3, 4999) ];
    List.map flow_seq (Sched.drain s ~now:0.0)
  in
  let wfq = run_disc (fun () -> Wfq.sched (Wfq.create ~capacity:2.0 w)) in
  let wf2q = run_disc (fun () -> pifo (Programs.wf2q_float ~capacity:2.0 w)) in
  (* WFQ: the paper's pathological order. *)
  Alcotest.(check (list (pair int int)))
    "wfq order" [ (1, 1); (2, 1); (2, 2); (2, 3); (1, 2) ] wfq;
  (* WF2Q: flow 1's second packet interleaves before m's tail. *)
  check_bool "wf2q interleaves" true (wf2q <> wfq);
  let m_run =
    (* longest consecutive run of flow-2 packets *)
    let best = ref 0 and cur = ref 0 in
    List.iter
      (fun (f, _) ->
        if f = 2 then incr cur else cur := 0;
        if !cur > !best then best := !cur)
      wf2q;
    !best
  in
  check_bool "no 3-packet burst" true (m_run <= 2)

let test_wf2q_size_backlog () =
  let s = Pifo_sched.create (Programs.wf2q_float ~capacity:10.0 (Weights.uniform 1.0)) in
  Pifo_sched.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:10 ());
  Pifo_sched.enqueue s ~now:0.0 (pkt ~flow:1 ~seq:2 ~len:10 ());
  check_int "size" 2 (Pifo_sched.size s);
  check_int "backlog" 2 (Pifo_sched.backlog s 1);
  ignore (Pifo_sched.dequeue s ~now:0.0);
  check_int "after" 1 (Pifo_sched.size s)

let prop_wf2q_conservation =
  QCheck.Test.make ~name:"wf2q: conservation + per-flow FIFO" ~count:150
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_range 1 4) (int_range 1 999)))
    (fun ops ->
      let s = pifo (Programs.wf2q_float ~capacity:1000.0 (Weights.uniform 10.0)) in
      let seqs = Hashtbl.create 8 in
      let injected = ref [] in
      List.iteri
        (fun i (flow, len) ->
          let seq = (try Hashtbl.find seqs flow with Not_found -> 0) + 1 in
          Hashtbl.replace seqs flow seq;
          injected := (flow, seq) :: !injected;
          s.Sched.enqueue ~now:(0.01 *. float_of_int i)
            (Packet.make ~flow ~seq ~len ~born:0.0 ()))
        ops;
      let out = List.map flow_seq (Sched.drain s ~now:1000.0) in
      let conserved = List.sort compare out = List.sort compare !injected in
      let fifo =
        let last = Hashtbl.create 8 in
        List.for_all
          (fun (flow, seq) ->
            let prev = try Hashtbl.find last flow with Not_found -> 0 in
            Hashtbl.replace last flow seq;
            seq = prev + 1)
          out
      in
      conserved && fifo)

(* ------------------------------------------------------------------ *)
(* Shaper                                                               *)

let test_shaper_passes_conforming () =
  let sim = Sim.create () in
  let out = ref [] in
  let shaper =
    Shaper.create sim ~sigma:1000.0 ~rho:100.0 ~target:(fun p ->
        out := (Sim.now sim, p.Packet.seq) :: !out)
  in
  (* One small packet with a full bucket: released immediately. *)
  Sim.schedule sim ~at:0.0 (fun () -> Shaper.inject shaper (pkt ~flow:1 ~seq:1 ~len:500 ()));
  Sim.run_all sim ();
  (match !out with
  | [ (t, 1) ] -> check_float "immediate" 0.0 t
  | _ -> Alcotest.fail "expected one release")

let test_shaper_delays_burst () =
  let sim = Sim.create () in
  let out = ref [] in
  let shaper =
    Shaper.create sim ~sigma:1000.0 ~rho:100.0 ~target:(fun p ->
        out := (Sim.now sim, p.Packet.seq) :: !out)
  in
  (* Burst of 3 x 500 bits against a 1000-bit bucket at 100 b/s:
     two leave at t=0, the third waits 5 s for tokens. *)
  Sim.schedule sim ~at:0.0 (fun () ->
      for seq = 1 to 3 do
        Shaper.inject shaper (pkt ~flow:1 ~seq ~len:500 ())
      done);
  Sim.run_all sim ();
  (match List.rev !out with
  | [ (t1, 1); (t2, 2); (t3, 3) ] ->
    check_float "first" 0.0 t1;
    check_float "second" 0.0 t2;
    check_bool "third waits ~5s" true (Float.abs (t3 -. 5.0) < 1e-6)
  | _ -> Alcotest.fail "expected three releases");
  check_int "released counter" 3 (Shaper.released shaper)

let test_shaper_output_conforms () =
  (* Property-style: a violent on-off source through the shaper never
     exceeds sigma + rho*(t2-t1) bits in any output window. *)
  let sim = Sim.create () in
  let sigma = 5000.0 and rho = 1000.0 and len = 1000 in
  let times = ref [] in
  let shaper =
    Shaper.create sim ~sigma ~rho ~target:(fun _ -> times := Sim.now sim :: !times)
  in
  ignore
    (Source.on_off sim ~target:(Shaper.inject shaper) ~flow:1 ~len ~peak_rate:50_000.0
       ~on:0.5 ~off:0.5 ~start:0.0 ~stop:20.0);
  Sim.run_all sim ();
  let arr = Array.of_list (List.rev !times) in
  let n = Array.length arr in
  check_bool "some output" true (n > 10);
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let bits = float_of_int ((j - i + 1) * len) in
      if bits > sigma +. (rho *. (arr.(j) -. arr.(i))) +. float_of_int len +. 1e-6 then
        ok := false
    done
  done;
  check_bool "(sigma, rho) conformance" true !ok

let test_shaper_fifo_order () =
  let sim = Sim.create () in
  let out = ref [] in
  let shaper =
    Shaper.create sim ~sigma:2000.0 ~rho:1000.0 ~target:(fun p -> out := p.Packet.seq :: !out)
  in
  Sim.schedule sim ~at:0.0 (fun () ->
      for seq = 1 to 6 do
        Shaper.inject shaper (pkt ~flow:1 ~seq ~len:1000 ())
      done);
  Sim.run_all sim ();
  Alcotest.(check (list int)) "order preserved" [ 1; 2; 3; 4; 5; 6 ] (List.rev !out)

let test_shaper_validation () =
  let sim = Sim.create () in
  check_bool "bad params" true
    (try
       ignore (Shaper.create sim ~sigma:0.0 ~rho:1.0 ~target:(fun _ -> ()));
       false
     with Invalid_argument _ -> true);
  let shaper = Shaper.create sim ~sigma:100.0 ~rho:1.0 ~target:(fun _ -> ()) in
  check_bool "oversized packet" true
    (try
       Shaper.inject shaper (pkt ~flow:1 ~seq:1 ~len:200 ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Admission                                                            *)

let server100 = { Admission.capacity = 100.0; delta = 20.0 }

let spec flow rate max_len = { Admission.flow; rate; max_len }

let test_admission_accepts_within_capacity () =
  check_bool "fits" true
    (Admission.admissible server100 [ spec 1 40.0 10; spec 2 60.0 10 ]);
  check_bool "overflows" false
    (Admission.admissible server100 [ spec 1 40.0 10; spec 2 61.0 10 ])

let test_admission_validation () =
  check_bool "duplicate flow" true
    (try
       ignore (Admission.admissible server100 [ spec 1 1.0 1; spec 1 1.0 1 ]);
       false
     with Invalid_argument _ -> true);
  check_bool "bad rate" true
    (try
       ignore (Admission.admissible server100 [ spec 1 0.0 1 ]);
       false
     with Invalid_argument _ -> true)

let test_admission_guarantees () =
  match Admission.admit server100 [ spec 1 40.0 10; spec 2 60.0 20 ] with
  | None -> Alcotest.fail "should admit"
  | Some [ g1; g2 ] ->
    (* Theorem 4 for flow 1: (20 + 10 + 20)/100 = 0.5. *)
    check_float "flow1 delay bound" 0.5 g1.Admission.delay_bound;
    (* Theorem 2 deficit for flow 1: 40*30/100 + 40*20/100 + 10 = 30. *)
    check_float "flow1 deficit" 30.0 g1.Admission.throughput_deficit;
    (* Theorem 1 vs flow 2: 10/40 + 20/60. *)
    (match g1.Admission.fairness_vs with
    | [ (2, h) ] -> check_float "H(1,2)" ((10.0 /. 40.0) +. (20.0 /. 60.0)) h
    | _ -> Alcotest.fail "expected one pair");
    check_bool "flow2 present" true (g2.Admission.spec.Admission.flow = 2)
  | Some _ -> Alcotest.fail "expected two guarantees"

let test_admission_rejects () =
  check_bool "none" true (Admission.admit server100 [ spec 1 101.0 10 ] = None)

let test_admission_spare () =
  check_float "spare" 30.0
    (Admission.max_admissible_rate server100 [ spec 1 70.0 10 ])

let test_admission_e2e () =
  let servers = [ server100; server100 ] in
  let g =
    Admission.e2e_guarantee ~servers ~per_hop_others_lmax:[ 50.0; 50.0 ]
      ~spec:(spec 1 10.0 10) ~prop_delays:[ 0.1 ] ~sigma:40.0
  in
  (* sigma/r + 2*beta + tau = 4.0 + 2*(0.5+0.1+0.2) + 0.1. *)
  check_float "bound" (4.0 +. (2.0 *. 0.8) +. 0.1) g

let test_admission_e2e_validation () =
  check_bool "mismatch" true
    (try
       ignore
         (Admission.e2e_guarantee ~servers:[ server100 ] ~per_hop_others_lmax:[]
            ~spec:(spec 1 1.0 1) ~prop_delays:[] ~sigma:10.0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* New experiments                                                      *)

let test_priority_residual () =
  let r = Sfq_experiments.Priority_residual.run () in
  check_bool "FC residual model holds" true r.Sfq_experiments.Priority_residual.residual_fc_holds;
  check_bool "Theorem 4 with residual params holds" true
    (r.Sfq_experiments.Priority_residual.thm4_worst_slack_ms >= 0.0);
  check_bool "many packets" true (r.Sfq_experiments.Priority_residual.packets_checked > 10_000)

let test_tie_break_ablation () =
  let r = Sfq_experiments.Tie_break_ablation.run () in
  match r.Sfq_experiments.Tie_break_ablation.rows with
  | [ arrival; low_first; high_first ] ->
    let open Sfq_experiments.Tie_break_ablation in
    (* Tie independence of the delay guarantee: max delays agree. *)
    check_bool "max tie-independent" true
      (Float.abs (arrival.low_max_ms -. low_first.low_max_ms) < 0.5
      && Float.abs (arrival.low_max_ms -. high_first.low_max_ms) < 0.5);
    (* Low-rate-first trims the low-rate average. *)
    check_bool "low-rate-first helps" true (low_first.low_avg_ms < arrival.low_avg_ms)
  | _ -> Alcotest.fail "expected three rows"

let test_gsfq () =
  let r = Sfq_experiments.Gsfq_video.run () in
  let open Sfq_experiments.Gsfq_video in
  check_bool "Theorem 4 held with per-packet rates" true (r.gsfq_worst_slack_ms >= -1e-6);
  check_bool "many packets" true (r.packets_checked > 1000);
  check_bool "per-packet rates cut I-frame worst delay" true
    (r.gsfq_iframe_max_ms < r.fixed_iframe_max_ms)

let test_e2e_ebf () =
  let r = Sfq_experiments.E2e_ebf.run () in
  let open Sfq_experiments.E2e_ebf in
  check_int "composed bound never violated where informative" 0 r.violations;
  (* The empirical tail must actually decay. *)
  (match (List.nth_opt r.points 0, List.nth_opt r.points 7) with
  | Some first, Some last -> check_bool "tail decays" true (last.empirical < first.empirical)
  | _ -> Alcotest.fail "expected 8 points");
  check_bool "base positive" true (r.base_ms > 0.0)

let test_busy_rule_ablation () =
  let r = Sfq_experiments.Busy_rule_ablation.run () in
  let open Sfq_experiments.Busy_rule_ablation in
  check_bool "correct rule at half the bound" true (r.h_idle_poll <= 0.51 *. r.bound);
  check_bool "shortcut doubles H" true (r.h_on_empty >= 1.9 *. r.h_idle_poll);
  check_bool "still within Theorem 1" true (r.h_on_empty <= r.bound +. 1e-9)

let test_fig1_topology () =
  let r = Sfq_experiments.Fig1_topology.run () in
  let open Sfq_experiments.Fig1_topology in
  check_bool "WFQ starves late flow over the real topology" true
    (r.wfq.src3_window * 4 < r.wfq.src2_window);
  check_bool "SFQ splits evenly over the real topology" true
    (r.sfq.src3_window > r.sfq.src2_window / 2)

(* Table 1 with WF2Q included: WF2Q behaves like WFQ on variable-rate. *)
let test_table1_wf2q_row () =
  let r = Sfq_experiments.Table1_fairness.run ~quick:true () in
  let row name =
    List.find
      (fun (row : Sfq_experiments.Table1_fairness.row) -> row.disc = name)
      r.Sfq_experiments.Table1_fairness.rows
  in
  let wf2q = row "WF2Q" in
  let bound = r.Sfq_experiments.Table1_fairness.h_bound_equal in
  check_bool "fair when rates match" true (wf2q.h_backlogged <= bound +. 1e-6);
  check_bool "still breaks on variable-rate (assumed clock)" true
    (wf2q.h_variable > 2.0 *. bound)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "extensions"
    [
      ( "wf2q",
        [
          Alcotest.test_case "eligibility" `Quick test_wf2q_eligibility;
          Alcotest.test_case "work conserving" `Quick test_wf2q_work_conserving;
          Alcotest.test_case "no example-1 burst" `Quick test_wf2q_no_example1_burst;
          Alcotest.test_case "size/backlog" `Quick test_wf2q_size_backlog;
          q prop_wf2q_conservation;
        ] );
      ( "shaper",
        [
          Alcotest.test_case "passes conforming" `Quick test_shaper_passes_conforming;
          Alcotest.test_case "delays burst" `Quick test_shaper_delays_burst;
          Alcotest.test_case "output conforms" `Quick test_shaper_output_conforms;
          Alcotest.test_case "fifo order" `Quick test_shaper_fifo_order;
          Alcotest.test_case "validation" `Quick test_shaper_validation;
        ] );
      ( "admission",
        [
          Alcotest.test_case "capacity check" `Quick test_admission_accepts_within_capacity;
          Alcotest.test_case "validation" `Quick test_admission_validation;
          Alcotest.test_case "guarantees" `Quick test_admission_guarantees;
          Alcotest.test_case "rejects" `Quick test_admission_rejects;
          Alcotest.test_case "spare capacity" `Quick test_admission_spare;
          Alcotest.test_case "e2e" `Quick test_admission_e2e;
          Alcotest.test_case "e2e validation" `Quick test_admission_e2e_validation;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "E15 priority residual" `Slow test_priority_residual;
          Alcotest.test_case "E16 tie-break ablation" `Slow test_tie_break_ablation;
          Alcotest.test_case "E17 generalized SFQ" `Slow test_gsfq;
          Alcotest.test_case "E18 EBF end-to-end" `Slow test_e2e_ebf;
          Alcotest.test_case "E19 busy-rule ablation" `Quick test_busy_rule_ablation;
          Alcotest.test_case "E20 fig 1 topology" `Slow test_fig1_topology;
          Alcotest.test_case "table 1 WF2Q row" `Quick test_table1_wf2q_row;
        ] );
    ]
