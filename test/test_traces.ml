(* Golden traces: hand-computed service orders for every discipline
   over shared scenarios. Each case documents, packet by packet, what
   the algorithm's tags are and therefore exactly which order must come
   out. These are the library's executable worked examples; if a
   refactor changes any discipline's semantics, the diff shows up here
   first.

   Scenario A ("burst duel"): flow 1 (weight 1) and flow 2 (weight 2)
   both dump three 6-bit packets at t = 0. Tags, by eqs. 1-5:

     flow 1 (r=1): S = 0,  6, 12   F =  6, 12, 18
     flow 2 (r=2): S = 0,  3,  6   F =  3,  6,  9

   Scenario B ("late joiner"): flow 1 dumps four 6-bit packets at t=0;
   flow 2's single 6-bit packet arrives after two services. Tag values
   depend on each algorithm's virtual time — worked out per case.

   All runs drain with dequeue-only calls at a fixed instant, i.e. the
   server-asks-for-work pattern (now after all arrivals), so virtual
   times evolve exactly as each algorithm's definition prescribes. *)

open Sfq_base
open Sfq_sched
module Pifo_sched = Sfq_pifo.Pifo_sched
module Programs = Sfq_pifo.Programs

let pifo prog = Pifo_sched.sched (Pifo_sched.create prog)

let pkt ~flow ~seq ~len () = Packet.make ~flow ~seq ~len ~born:0.0 ()
let flow_seq p = (p.Packet.flow, p.Packet.seq)

let check_order = Alcotest.(check (list (pair int int)))

let weights_a = Weights.of_list [ (1, 1.0); (2, 2.0) ]

let burst_duel sched =
  List.iter
    (fun flow ->
      for seq = 1 to 3 do
        sched.Sched.enqueue ~now:0.0 (pkt ~flow ~seq ~len:6 ())
      done)
    [ 1; 2 ];
  List.map flow_seq (Sched.drain sched ~now:0.0)

(* --- Scenario A, per discipline ----------------------------------- *)

let test_sfq_burst_duel () =
  (* Start-tag order with arrival ties:
     (1,1) S=0 ties (2,1) S=0 -> flow 1 arrived first;
     then (2,2) S=3, then (1,2) S=6 ties (2,3) S=6 -> flow 1 enqueued
     earlier (uid), then (1,3) S=12. *)
  let s = Sfq_core.Sfq.sched (Sfq_core.Sfq.create weights_a) in
  check_order "sfq"
    [ (1, 1); (2, 1); (2, 2); (1, 2); (2, 3); (1, 3) ]
    (burst_duel s)

let test_scfq_burst_duel () =
  (* Finish-tag order: F2=3 first? No - all tags assigned at t=0 with
     v=0: flow1 F = 6,12,18; flow2 F = 3,6,9. Order: (2,1) F3,
     (1,1) F6 ties (2,2) F6 -> flow 1's was pushed first (uid 1 < 4);
     then (2,3) F9, (1,2) F12, (1,3) F18. *)
  let s = pifo (Programs.scfq_float weights_a) in
  check_order "scfq"
    [ (2, 1); (1, 1); (2, 2); (2, 3); (1, 2); (1, 3) ]
    (burst_duel s)

let test_wfq_fluid_burst_duel () =
  (* All arrivals at t=0 with v=0: same finish tags as SCFQ (the GPS
     clock never advances between the simultaneous arrivals), so the
     same order. *)
  let s = Wfq.sched (Wfq.create ~capacity:3.0 weights_a) in
  check_order "wfq"
    [ (2, 1); (1, 1); (2, 2); (2, 3); (1, 2); (1, 3) ]
    (burst_duel s)

let test_fqs_burst_duel () =
  (* WFQ tags, start order: S1 = 0,6,12; S2 = 0,3,6. Same key values as
     SFQ and same uid tie-breaks. *)
  let s = pifo (Programs.fqs_float ~capacity:3.0 weights_a) in
  check_order "fqs"
    [ (1, 1); (2, 1); (2, 2); (1, 2); (2, 3); (1, 3) ]
    (burst_duel s)

let test_wf2q_burst_duel () =
  (* Eligibility gating on top of WFQ's F order. Serving one packet of
     the fluid's 9 bits of virtual work advances v by 2 per... worked
     trace: at v=0 eligible = {(1,1) S0 F6, (2,1) S0 F3}: pick (2,1).
     After each dequeue v advances with fluid time; with capacity 3 and
     both flows fluid-backlogged v reaches 3 when 9 bits served; here
     dequeues happen at one instant so v stays 0 and only S=0 packets
     are eligible: (2,1), then (1,1); then nothing eligible -> smallest
     start tag serves (2,2) S3, then (2,3) S6 vs (1,2) S6 tie -> uid:
     (1,2) enqueued earlier; then (2,3), (1,3). *)
  let s = pifo (Programs.wf2q_float ~capacity:3.0 weights_a) in
  check_order "wf2q"
    [ (2, 1); (1, 1); (2, 2); (1, 2); (2, 3); (1, 3) ]
    (burst_duel s)

let test_vc_burst_duel () =
  (* Virtual Clock stamps EAT + l/r with EAT chains from t=0:
     flow1: 6, 12, 18; flow2: 3, 6, 9 — numerically the same keys as
     SCFQ here, same order. *)
  let s = pifo (Programs.virtual_clock_float weights_a) in
  check_order "vc"
    [ (2, 1); (1, 1); (2, 2); (2, 3); (1, 2); (1, 3) ]
    (burst_duel s)

let test_drr_burst_duel () =
  (* Quantum 6 per unit weight: flow 1 gets 6 bits/round (one packet),
     flow 2 gets 12 (two packets). Active list order: flow 1 first. *)
  let s = Drr.sched (Drr.create ~quantum:6.0 weights_a) in
  check_order "drr"
    [ (1, 1); (2, 1); (2, 2); (1, 2); (2, 3); (1, 3) ]
    (burst_duel s)

let test_wrr_burst_duel () =
  (* Credits: ceil(weight) -> flow 1 sends 1/round, flow 2 sends 2. *)
  let s = Wrr.sched (Wrr.create weights_a) in
  check_order "wrr"
    [ (1, 1); (2, 1); (2, 2); (1, 2); (2, 3); (1, 3) ]
    (burst_duel s)

let test_fifo_burst_duel () =
  let s = Fifo.sched (Fifo.create ()) in
  check_order "fifo"
    [ (1, 1); (1, 2); (1, 3); (2, 1); (2, 2); (2, 3) ]
    (burst_duel s)

(* --- Scenario B: late joiner --------------------------------------- *)

(* Flow 1 (weight 1) dumps four 6-bit packets at t=0; two dequeues
   happen; then flow 2 (weight 2) arrives with one 6-bit packet. *)
let late_joiner sched =
  for seq = 1 to 4 do
    sched.Sched.enqueue ~now:0.0 (pkt ~flow:1 ~seq ~len:6 ())
  done;
  let first = List.map flow_seq (Sched.drain_n sched ~now:0.0 2) in
  sched.Sched.enqueue ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:6 ());
  first @ List.map flow_seq (Sched.drain sched ~now:0.0)

let test_sfq_late_joiner () =
  (* Flow 1 tags: S = 0,6,12,18. After two services v = S(in service)
     = 6. Flow 2 joins: S = max(6, 0) = 6 — tie with (1,3)'s S? No:
     (1,3) has S = 12. Order: (2,1) S6 before (1,3) S12, (1,4) S18. *)
  let s = Sfq_core.Sfq.sched (Sfq_core.Sfq.create weights_a) in
  check_order "sfq late joiner"
    [ (1, 1); (1, 2); (2, 1); (1, 3); (1, 4) ]
    (late_joiner s)

let test_scfq_late_joiner () =
  (* Flow 1 F = 6,12,18,24. After two services v = F(in service) = 12.
     Flow 2: S = max(12, 0), F = 12 + 3 = 15 < 18. *)
  let s = pifo (Programs.scfq_float weights_a) in
  check_order "scfq late joiner"
    [ (1, 1); (1, 2); (2, 1); (1, 3); (1, 4) ]
    (late_joiner s)

let test_vc_late_joiner () =
  (* VC stamps flow 1: 6,12,18,24 (EAT chain from t=0). Flow 2 arrives
     at real time 0 (no time passed in this instant-drain test):
     stamp = 0 + 3 = 3 — beats every remaining flow-1 stamp. VC's
     "punishment" only appears when real time passes; at one instant
     the late flow wins outright. *)
  let s = pifo (Programs.virtual_clock_float weights_a) in
  check_order "vc late joiner"
    [ (1, 1); (1, 2); (2, 1); (1, 3); (1, 4) ]
    (late_joiner s)

let test_fifo_late_joiner () =
  let s = Fifo.sched (Fifo.create ()) in
  check_order "fifo late joiner"
    [ (1, 1); (1, 2); (1, 3); (1, 4); (2, 1) ]
    (late_joiner s)

(* --- Scenario C: mixed lengths under SFQ --------------------------- *)

let test_sfq_mixed_lengths () =
  (* Equal weights 1; flow 1 sends 10-bit packets, flow 2 sends 5-bit.
     Flow 2 must get two services per flow-1 service (byte fairness in
     start-tag form):
       flow1 S = 0, 10, 20;  flow2 S = 0, 5, 10, 15, 20, 25. *)
  let w = Weights.uniform 1.0 in
  let s = Sfq_core.Sfq.sched (Sfq_core.Sfq.create w) in
  for seq = 1 to 3 do
    s.Sched.enqueue ~now:0.0 (pkt ~flow:1 ~seq ~len:10 ())
  done;
  for seq = 1 to 6 do
    s.Sched.enqueue ~now:0.0 (pkt ~flow:2 ~seq ~len:5 ())
  done;
  check_order "sfq mixed lengths"
    [ (1, 1); (2, 1); (2, 2); (1, 2); (2, 3); (2, 4); (1, 3); (2, 5); (2, 6) ]
    (List.map flow_seq (Sched.drain s ~now:0.0))

let () =
  Alcotest.run "traces"
    [
      ( "burst duel",
        [
          Alcotest.test_case "sfq" `Quick test_sfq_burst_duel;
          Alcotest.test_case "scfq" `Quick test_scfq_burst_duel;
          Alcotest.test_case "wfq fluid" `Quick test_wfq_fluid_burst_duel;
          Alcotest.test_case "fqs" `Quick test_fqs_burst_duel;
          Alcotest.test_case "wf2q" `Quick test_wf2q_burst_duel;
          Alcotest.test_case "virtual clock" `Quick test_vc_burst_duel;
          Alcotest.test_case "drr" `Quick test_drr_burst_duel;
          Alcotest.test_case "wrr" `Quick test_wrr_burst_duel;
          Alcotest.test_case "fifo" `Quick test_fifo_burst_duel;
        ] );
      ( "late joiner",
        [
          Alcotest.test_case "sfq" `Quick test_sfq_late_joiner;
          Alcotest.test_case "scfq" `Quick test_scfq_late_joiner;
          Alcotest.test_case "virtual clock" `Quick test_vc_late_joiner;
          Alcotest.test_case "fifo" `Quick test_fifo_late_joiner;
        ] );
      ( "mixed lengths",
        [ Alcotest.test_case "sfq" `Quick test_sfq_mixed_lengths ] );
    ]
