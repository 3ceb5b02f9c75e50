(* Tests for hierarchical SFQ (§3): construction, classification, tag
   mechanics across levels, fairness of subtree shares under a
   fluctuating parent share (Example 3), mixing inner disciplines
   (Delay EDD inside a class), and class lifecycle under evict,
   close_flow and leaves that drop on enqueue. *)

open Sfq_base
open Sfq_core
open Sfq_sched
module Pifo_sched = Sfq_pifo.Pifo_sched
module Programs = Sfq_pifo.Programs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let pkt ~flow ~seq ~len () = Packet.make ~flow ~seq ~len ~born:0.0 ()
let flow_seq p = (p.Packet.flow, p.Packet.seq)

let fifo_leaf () = Fifo.sched (Fifo.create ())

(* The structural cases run on both instances of the class tree: the
   float Hsfq and the fixed-point Pifo_tree. Their weights are dyadic,
   so both compute the same tags. *)
module type TREE = sig
  include Hsfq.TREE

  val create : unit -> t
  val prefix : string (* of the instance's Invalid_argument texts *)
end

module Float_tree = struct
  include Hsfq

  let prefix = "Hsfq"
end

module Fixed_tree = struct
  include Sfq_pifo.Pifo_tree

  let create () = create ()
  let prefix = "Pifo_tree"
end

module Cases (Hsfq : TREE) = struct
  let fail what = Invalid_argument (Hsfq.prefix ^ what)

  (* Two leaves under the root, equal weights, flows 1 and 2. *)
  let two_leaf () =
    let h = Hsfq.create () in
    let l1 = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:1.0 (fifo_leaf ()) in
    let l2 = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:1.0 (fifo_leaf ()) in
    Hsfq.set_classifier h (Hsfq.classifier_by_flow [ (1, l1); (2, l2) ]);
    h

  (* ---------------------------------------------------------------- *)
  (* Construction and classification errors                            *)

  let test_no_classifier () =
    let h = Hsfq.create () in
    let _ = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:1.0 (fifo_leaf ()) in
    Alcotest.check_raises "no classifier" (fail ".enqueue: no classifier set") (fun () ->
        Hsfq.enqueue h ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:1 ()))

  let test_bad_weight () =
    let h = Hsfq.create () in
    Alcotest.check_raises "weight" (fail ": weight must be positive") (fun () ->
        ignore (Hsfq.add_class h ~parent:(Hsfq.root h) ~weight:0.0))

  let test_leaf_parent_rejected () =
    let h = Hsfq.create () in
    let leaf = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:1.0 (fifo_leaf ()) in
    Alcotest.check_raises "leaf parent" (fail ": parent class is a leaf") (fun () ->
        ignore (Hsfq.add_class h ~parent:leaf ~weight:1.0))

  let test_classifier_to_internal_rejected () =
    let h = Hsfq.create () in
    let c = Hsfq.add_class h ~parent:(Hsfq.root h) ~weight:1.0 in
    Hsfq.set_classifier h (fun _ -> c);
    Alcotest.check_raises "internal target"
      (fail ".enqueue: classifier returned a non-leaf class") (fun () ->
        Hsfq.enqueue h ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:1 ()))

  let test_foreign_class_rejected () =
    let h1 = Hsfq.create () and h2 = Hsfq.create () in
    let foreign = Hsfq.add_leaf h2 ~parent:(Hsfq.root h2) ~weight:1.0 (fifo_leaf ()) in
    Hsfq.set_classifier h1 (fun _ -> foreign);
    let _ = Hsfq.add_leaf h1 ~parent:(Hsfq.root h1) ~weight:1.0 (fifo_leaf ()) in
    Alcotest.check_raises "foreign class" (fail ".enqueue: class from another hierarchy")
      (fun () -> Hsfq.enqueue h1 ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:1 ()))

  (* ---------------------------------------------------------------- *)
  (* Basic scheduling                                                   *)

  let test_single_leaf_fifo () =
    let h = Hsfq.create () in
    let l = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:1.0 (fifo_leaf ()) in
    Hsfq.set_classifier h (fun _ -> l);
    for seq = 1 to 3 do
      Hsfq.enqueue h ~now:0.0 (pkt ~flow:1 ~seq ~len:10 ())
    done;
    check_int "size" 3 (Hsfq.size h);
    let order = List.map (fun p -> p.Packet.seq) (Sched.drain (Hsfq.sched h) ~now:0.0) in
    Alcotest.(check (list int)) "fifo through hierarchy" [ 1; 2; 3 ] order

  let test_two_leaves_interleave () =
    let h = two_leaf () in
    for seq = 1 to 3 do
      Hsfq.enqueue h ~now:0.0 (pkt ~flow:1 ~seq ~len:10 ());
      Hsfq.enqueue h ~now:0.0 (pkt ~flow:2 ~seq ~len:10 ())
    done;
    let order = List.map flow_seq (Sched.drain (Hsfq.sched h) ~now:0.0) in
    Alcotest.(check (list (pair int int))) "alternating"
      [ (1, 1); (2, 1); (1, 2); (2, 2); (1, 3); (2, 3) ]
      order

  let test_weighted_leaves () =
    let h = Hsfq.create () in
    let l1 = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:2.0 (fifo_leaf ()) in
    let l2 = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:1.0 (fifo_leaf ()) in
    Hsfq.set_classifier h (Hsfq.classifier_by_flow [ (1, l1); (2, l2) ]);
    for seq = 1 to 4 do
      Hsfq.enqueue h ~now:0.0 (pkt ~flow:1 ~seq ~len:10 ())
    done;
    for seq = 1 to 2 do
      Hsfq.enqueue h ~now:0.0 (pkt ~flow:2 ~seq ~len:10 ())
    done;
    (* Weight-2 leaf emits twice as often. Start tags: leaf1 0,5,10,15;
       leaf2 0,10; the tie at 10 goes to leaf2 (its tag was assigned
       first). *)
    let order = List.map flow_seq (Sched.drain (Hsfq.sched h) ~now:0.0) in
    Alcotest.(check (list (pair int int))) "2:1 emission"
      [ (1, 1); (2, 1); (1, 2); (2, 2); (1, 3); (1, 4) ]
      order

  let test_backlog_aggregates () =
    let h = two_leaf () in
    Hsfq.enqueue h ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:10 ());
    Hsfq.enqueue h ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:10 ());
    Hsfq.enqueue h ~now:0.0 (pkt ~flow:2 ~seq:2 ~len:10 ());
    check_int "flow 1" 1 (Hsfq.backlog h 1);
    check_int "flow 2" 2 (Hsfq.backlog h 2);
    check_int "size" 3 (Hsfq.size h)

  let test_peek_matches_dequeue () =
    let h = two_leaf () in
    Hsfq.enqueue h ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:10 ());
    Hsfq.enqueue h ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:10 ());
    let rec go () =
      match (Hsfq.peek h, Hsfq.dequeue h ~now:0.0) with
      | None, None -> true
      | Some a, Some b -> flow_seq a = flow_seq b && go ()
      | _ -> false
    in
    check_bool "peek consistent" true (go ())

  let test_idle_class_no_stale_credit () =
    (* A class idle while another is served must not accumulate credit:
       when it reactivates its start tag snaps to the parent's v. *)
    let h = two_leaf () in
    for seq = 1 to 4 do
      Hsfq.enqueue h ~now:0.0 (pkt ~flow:1 ~seq ~len:10 ())
    done;
    (* Serve two of flow 1 (v moves to 10), then flow 2 arrives. *)
    ignore (Hsfq.dequeue h ~now:0.0);
    ignore (Hsfq.dequeue h ~now:0.0);
    Hsfq.enqueue h ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:10 ());
    (* Flow 2's leaf activates at v = 10, not at 0: it gets one packet
       in (start tag 10 vs flow 1's remaining 20, 30) but cannot claim
       the two services it missed. *)
    let order = List.map flow_seq (Sched.drain (Hsfq.sched h) ~now:0.0) in
    Alcotest.(check (list (pair int int))) "no stale credit"
      [ (2, 1); (1, 3); (1, 4) ]
      order

  (* ---------------------------------------------------------------- *)
  (* Nested hierarchy (Example 3 mechanics)                             *)

  let nested () =
    (* root{A{C,D}, B}; all weights 1; flows: C=1, D=2, B=3. *)
    let h = Hsfq.create () in
    let a = Hsfq.add_class h ~parent:(Hsfq.root h) ~weight:1.0 in
    let b = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:1.0 (fifo_leaf ()) in
    let c = Hsfq.add_leaf h ~parent:a ~weight:1.0 (fifo_leaf ()) in
    let d = Hsfq.add_leaf h ~parent:a ~weight:1.0 (fifo_leaf ()) in
    Hsfq.set_classifier h (Hsfq.classifier_by_flow [ (1, c); (2, d); (3, b) ]);
    h

  let count_flows order =
    List.fold_left
      (fun (c, d, b) p ->
        match p.Packet.flow with
        | 1 -> (c + 1, d, b)
        | 2 -> (c, d + 1, b)
        | _ -> (c, d, b + 1))
      (0, 0, 0) order

  let test_nested_b_idle () =
    let h = nested () in
    for seq = 1 to 6 do
      Hsfq.enqueue h ~now:0.0 (pkt ~flow:1 ~seq ~len:10 ());
      Hsfq.enqueue h ~now:0.0 (pkt ~flow:2 ~seq ~len:10 ())
    done;
    (* B idle: C and D alternate — each gets half the link. *)
    let first_six = List.filteri (fun i _ -> i < 6) (Sched.drain (Hsfq.sched h) ~now:0.0) in
    let c, d, b = count_flows first_six in
    check_int "C half" 3 c;
    check_int "D half" 3 d;
    check_int "B none" 0 b

  let test_nested_b_active () =
    let h = nested () in
    for seq = 1 to 8 do
      Hsfq.enqueue h ~now:0.0 (pkt ~flow:1 ~seq ~len:10 ());
      Hsfq.enqueue h ~now:0.0 (pkt ~flow:2 ~seq ~len:10 ());
      Hsfq.enqueue h ~now:0.0 (pkt ~flow:3 ~seq ~len:10 ())
    done;
    (* All active: B gets 1/2, C and D 1/4 each. Check over the first 8
       emissions. *)
    let first_eight =
      List.filteri (fun i _ -> i < 8) (Sched.drain (Hsfq.sched h) ~now:0.0)
    in
    let c, d, b = count_flows first_eight in
    check_int "B half" 4 b;
    check_int "C quarter" 2 c;
    check_int "D quarter" 2 d

  let test_class_vtime_accessor () =
    let h = nested () in
    Hsfq.enqueue h ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:10 ());
    ignore (Hsfq.dequeue h ~now:0.0);
    check_bool "root vtime defined" true (Hsfq.class_vtime h (Hsfq.root h) >= 0.0)

  (* Three levels: root{A{B{x,y}, z}, w}, all weights 1. Shares follow
     the recursive halving the paper's eq. 65 argument formalizes:
     w = 1/2, z = 1/4, x = y = 1/8. *)
  let test_three_levels () =
    let h = Hsfq.create () in
    let a = Hsfq.add_class h ~parent:(Hsfq.root h) ~weight:1.0 in
    let b = Hsfq.add_class h ~parent:a ~weight:1.0 in
    let x = Hsfq.add_leaf h ~parent:b ~weight:1.0 (fifo_leaf ()) in
    let y = Hsfq.add_leaf h ~parent:b ~weight:1.0 (fifo_leaf ()) in
    let z = Hsfq.add_leaf h ~parent:a ~weight:1.0 (fifo_leaf ()) in
    let w = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:1.0 (fifo_leaf ()) in
    Hsfq.set_classifier h (Hsfq.classifier_by_flow [ (1, x); (2, y); (3, z); (4, w) ]);
    for seq = 1 to 16 do
      List.iter
        (fun flow -> Hsfq.enqueue h ~now:0.0 (pkt ~flow ~seq ~len:10 ()))
        [ 1; 2; 3; 4 ]
    done;
    let first = Sched.drain_n (Hsfq.sched h) ~now:0.0 16 in
    let count f = List.length (List.filter (fun p -> p.Packet.flow = f) first) in
    check_int "w: half" 8 (count 4);
    check_int "z: quarter" 4 (count 3);
    check_int "x: eighth" 2 (count 1);
    check_int "y: eighth" 2 (count 2)

  (* root{A{B{x}}, w}, all weights 1: flow 1 sits two classes deep. *)
  let deep () =
    let h = Hsfq.create () in
    let a = Hsfq.add_class h ~parent:(Hsfq.root h) ~weight:1.0 in
    let b = Hsfq.add_class h ~parent:a ~weight:1.0 in
    let x = Hsfq.add_leaf h ~parent:b ~weight:1.0 (fifo_leaf ()) in
    let w = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:1.0 (fifo_leaf ()) in
    Hsfq.set_classifier h (Hsfq.classifier_by_flow [ (1, x); (4, w) ]);
    (h, a, b)

  (* The deepest leaf still drains completely once the others empty. *)
  let test_three_levels_drain () =
    let h, _, _ = deep () in
    for seq = 1 to 5 do
      Hsfq.enqueue h ~now:0.0 (pkt ~flow:1 ~seq ~len:10 ())
    done;
    Hsfq.enqueue h ~now:0.0 (pkt ~flow:4 ~seq:1 ~len:10 ());
    let out = List.map flow_seq (Sched.drain (Hsfq.sched h) ~now:0.0) in
    check_int "all six" 6 (List.length out);
    check_int "empty" 0 (Hsfq.size h)

  (* ---------------------------------------------------------------- *)
  (* Mixed inner discipline                                             *)

  let test_edd_leaf () =
    (* A class whose inner discipline is Delay EDD: intra-class order is
       by deadline even though inter-class order is SFQ. *)
    let h = Hsfq.create () in
    let edd =
      Pifo_sched.create
        (Programs.delay_edd_float
           [
             (1, { Delay_edd.rate = 10.0; deadline = 5.0; max_len = 10 });
             (2, { Delay_edd.rate = 10.0; deadline = 1.0; max_len = 10 });
           ])
    in
    let l = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:1.0 (Pifo_sched.sched edd) in
    Hsfq.set_classifier h (fun _ -> l);
    Hsfq.enqueue h ~now:0.0 (pkt ~flow:1 ~seq:1 ~len:10 ());
    Hsfq.enqueue h ~now:0.0 (pkt ~flow:2 ~seq:1 ~len:10 ());
    let order = List.map (fun p -> p.Packet.flow) (Sched.drain (Hsfq.sched h) ~now:0.0) in
    Alcotest.(check (list int)) "EDF inside the class" [ 2; 1 ] order

  (* ---------------------------------------------------------------- *)
  (* Lifecycle: evict and close_flow through the tree                   *)

  let enqueue_flow h flow seqs =
    List.iter (fun seq -> Hsfq.enqueue h ~now:0.0 (pkt ~flow ~seq ~len:10 ())) seqs

  (* Serve x1, w1, x2 from root{A{B{x}}, w}, then evict x3, flow 1's
     last packet: the deep class leaves every PIFO up to the root.
     Tags: A and w both start at 0; A re-enters at 10, w at 10; serving
     x2 moves v to 10 at every level. *)
  let evicted_deep () =
    let ((h, a, b) as tree) = deep () in
    enqueue_flow h 1 [ 1; 2; 3 ];
    enqueue_flow h 4 [ 1; 2; 3 ];
    let served = Sched.drain_n (Hsfq.sched h) ~now:0.0 3 in
    Alcotest.(check (list (pair int int))) "served" [ (1, 1); (4, 1); (1, 2) ]
      (List.map flow_seq served);
    let vs () = List.map (Hsfq.class_vtime h) [ Hsfq.root h; a; b ] in
    let before = vs () in
    let victim = (Hsfq.sched h).Sched.evict ~now:0.0 Sched.Oldest 1 in
    Alcotest.(check (option (pair int int))) "victim" (Some (1, 3))
      (Option.map flow_seq victim);
    Alcotest.(check (list (float 0.0))) "v not rolled back" before (vs ());
    tree

  let test_evict_to_root () =
    let h, _, _ = evicted_deep () in
    check_int "size" 2 (Hsfq.size h);
    check_int "flow 1 gone" 0 (Hsfq.backlog h 1);
    Alcotest.(check (option (pair int int))) "peek: the sibling" (Some (4, 2))
      (Option.map flow_seq (Hsfq.peek h));
    Alcotest.(check (list (pair int int))) "sibling drains" [ (4, 2); (4, 3) ]
      (List.map flow_seq (Sched.drain (Hsfq.sched h) ~now:0.0))

  (* After the eviction the root serves w2 (S = 10) and queues w again
     at F = 20. Flow 1 reopening re-activates x, B and A at
     max(v = 10, F_prev = 20) = 20 at every level, behind w's 20: at
     S = v = 10 it would overtake w3. *)
  let test_reopen_at_fprev () =
    let h, a, b = evicted_deep () in
    ignore (Hsfq.dequeue h ~now:0.0);
    enqueue_flow h 1 [ 4; 5 ];
    Alcotest.(check (list (pair int int))) "reopened class waits its turn"
      [ (4, 3); (1, 4); (1, 5) ]
      (List.map flow_seq (Sched.drain (Hsfq.sched h) ~now:0.0));
    (* x4 and x5 were served at S = 20 and 30 inside A and B. *)
    Alcotest.(check (list (float 0.0))) "class v" [ 30.0; 30.0 ]
      (List.map (Hsfq.class_vtime h) [ a; b ])

  let test_close_oldest_first () =
    let h = nested () in
    enqueue_flow h 1 [ 1; 2; 3 ];
    enqueue_flow h 3 [ 1; 2 ];
    let closed = (Hsfq.sched h).Sched.close_flow ~now:0.0 1 in
    Alcotest.(check (list (pair int int))) "flushed oldest first" [ (1, 1); (1, 2); (1, 3) ]
      (List.map flow_seq closed);
    check_int "size" 2 (Hsfq.size h);
    Alcotest.(check (list (pair int int))) "sibling served" [ (3, 1); (3, 2) ]
      (List.map flow_seq (Sched.drain (Hsfq.sched h) ~now:0.0))

  (* A leaf that drops on enqueue: flow 1's leaf holds one packet, so
     its second arrival is rejected (Drop_tail) or replaces the first
     (Drop_front). The tree's size must count what the leaves kept. *)
  let test_dropping_leaf policy () =
    let h = Hsfq.create () in
    let buffered () =
      Buffered.sched (Buffered.wrap (Buffered.config ~per_flow:1 ~policy ()) (fifo_leaf ()))
    in
    let l1 = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:1.0 (buffered ()) in
    let l2 = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:1.0 (buffered ()) in
    Hsfq.set_classifier h (Hsfq.classifier_by_flow [ (1, l1); (2, l2) ]);
    enqueue_flow h 1 [ 1; 2 ];
    enqueue_flow h 2 [ 1 ];
    check_int "size = summed backlog" (Hsfq.backlog h 1 + Hsfq.backlog h 2) (Hsfq.size h);
    let size = Hsfq.size h in
    check_int "drain returns size packets" size
      (List.length (Sched.drain (Hsfq.sched h) ~now:0.0));
    check_int "empty" 0 (Hsfq.size h)
end

module F = Cases (Float_tree)
module P = Cases (Fixed_tree)

let both f g () =
  f ();
  g ()

(* ------------------------------------------------------------------ *)
(* Hierarchical guarantees (Theorem 1 inside a class, eq. 65)          *)

open Sfq_netsim
open Sfq_analysis

(* Theorem 1 inside class A while A's bandwidth fluctuates because a
   sibling class B turns on and off at random: the two leaves of A must
   stay within the SFQ fairness bound for their weights. *)
let prop_class_fairness_under_fluctuation =
  QCheck.Test.make ~name:"hsfq: Theorem 1 holds inside a class with fluctuating share"
    ~count:40
    QCheck.(triple (int_range 1 1000) (int_range 1 3) (int_range 1 3))
    (fun (seed, wc, wd) ->
      (* QCheck's shrinker can step outside int_range; clamp. *)
      let wc = Stdlib.max 1 wc and wd = Stdlib.max 1 wd in
      let rng = Sfq_util.Rng.create seed in
      let r_c = 100.0 *. float_of_int wc and r_d = 100.0 *. float_of_int wd in
      let h = Hsfq.create () in
      let a = Hsfq.add_class h ~parent:(Hsfq.root h) ~weight:1.0 in
      let b = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:1.0 (fifo_leaf ()) in
      let c = Hsfq.add_leaf h ~parent:a ~weight:r_c (fifo_leaf ()) in
      let d = Hsfq.add_leaf h ~parent:a ~weight:r_d (fifo_leaf ()) in
      Hsfq.set_classifier h (Hsfq.classifier_by_flow [ (1, c); (2, d); (3, b) ]);
      let sim = Sim.create () in
      let server =
        Server.create sim ~name:"h" ~rate:(Rate_process.constant 1000.0)
          ~sched:(Hsfq.sched h) ()
      in
      let log = Service_log.attach server in
      (* Leaves of A: continuously backlogged. *)
      ignore (Source.greedy sim ~server ~flow:1 ~len:500 ~total:100_000 ~window:4 ~start:0.0 ());
      ignore (Source.greedy sim ~server ~flow:2 ~len:500 ~total:100_000 ~window:4 ~start:0.0 ());
      (* Sibling B: random on/off bursts stealing half the link. *)
      let t = ref 0.0 in
      for _ = 1 to 10 do
        let on = 2.0 +. Sfq_util.Rng.float rng 20.0 in
        let off = 2.0 +. Sfq_util.Rng.float rng 20.0 in
        let at = !t +. off in
        let n = int_of_float (on *. 1.0 (* pkts at ~500 b/s share *)) + 1 in
        Sim.schedule sim ~at (fun () ->
            for seq = 1 to n do
              Server.inject server (pkt ~flow:3 ~seq ~len:500 ())
            done);
        t := at +. on
      done;
      Sim.run sim ~until:200.0;
      let hm = Fairness.exact_h log ~f:1 ~m:2 ~r_f:r_c ~r_m:r_d ~until:(Sim.now sim) in
      let bound = Sfq_core.Bounds.h_sfq ~lmax_f:500.0 ~r_f:r_c ~lmax_m:500.0 ~r_m:r_d in
      hm <= bound +. 1e-6)

(* eq. 65: the virtual server a class sees is FC with the predicted
   parameters. Class A has rate weight r_a on a constant-rate link
   shared with a backlogged sibling; A's aggregate service must satisfy
   W_A(t1,t2) >= share*(t2-t1) - delta' on a grid of intervals. *)
let test_virtual_server_fc () =
  let capacity = 1000.0 in
  let r_a = 400.0 and r_b = 600.0 in
  let len = 500 in
  let h = Hsfq.create () in
  let a = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:r_a (fifo_leaf ()) in
  let b = Hsfq.add_leaf h ~parent:(Hsfq.root h) ~weight:r_b (fifo_leaf ()) in
  Hsfq.set_classifier h (Hsfq.classifier_by_flow [ (1, a); (2, b) ]);
  let sim = Sim.create () in
  let server =
    Server.create sim ~name:"vs" ~rate:(Rate_process.constant capacity) ~sched:(Hsfq.sched h) ()
  in
  let log = Service_log.attach server in
  ignore (Source.greedy sim ~server ~flow:1 ~len ~total:100_000 ~window:4 ~start:0.0 ());
  ignore (Source.greedy sim ~server ~flow:2 ~len ~total:100_000 ~window:4 ~start:0.0 ());
  Sim.run sim ~until:120.0;
  let _, delta' =
    Sfq_core.Bounds.fc_virtual_server ~rate:r_a
      ~sum_lmax:(float_of_int (2 * len))
      ~lmax_f:(float_of_int len) ~capacity ~delta:0.0
  in
  let ok = ref true in
  List.iter
    (fun span ->
      let t1 = ref 1.0 in
      while !t1 +. span < 110.0 do
        let w = Service_log.service log 1 ~t1:!t1 ~t2:(!t1 +. span) in
        if w < (r_a *. span) -. delta' -. 1e-6 then ok := false;
        t1 := !t1 +. (span /. 2.0)
      done)
    [ 0.5; 1.0; 5.0; 20.0 ];
  check_bool "eq. 65 FC parameters hold on grid" true !ok

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)

(* Conservation and per-flow FIFO hold in either key domain, whatever
   the weights, so this runs on both instances. *)
let conserved (module H : TREE) ops =
  let h = H.create () in
  let a = H.add_class h ~parent:(H.root h) ~weight:2.0 in
  let l1 = H.add_leaf h ~parent:a ~weight:1.0 (fifo_leaf ()) in
  let l2 = H.add_leaf h ~parent:a ~weight:3.0 (fifo_leaf ()) in
  let l3 = H.add_leaf h ~parent:(H.root h) ~weight:1.0 (fifo_leaf ()) in
  let l4 = H.add_leaf h ~parent:(H.root h) ~weight:0.5 (fifo_leaf ()) in
  H.set_classifier h (H.classifier_by_flow [ (1, l1); (2, l2); (3, l3); (4, l4) ]);
  let seqs = Hashtbl.create 8 in
  let injected = ref [] in
  List.iter
    (fun (flow, len) ->
      let seq = (try Hashtbl.find seqs flow with Not_found -> 0) + 1 in
      Hashtbl.replace seqs flow seq;
      injected := (flow, seq) :: !injected;
      H.enqueue h ~now:0.0 (pkt ~flow ~seq ~len ()))
    ops;
  let out = List.map flow_seq (Sched.drain (H.sched h) ~now:0.0) in
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
  conserved && fifo && H.size h = 0

let prop_conservation =
  QCheck.Test.make ~name:"hsfq: conservation + per-flow FIFO" ~count:150
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_range 1 4) (int_range 1 999)))
    (fun ops -> conserved (module Float_tree) ops && conserved (module Fixed_tree) ops)

(* Every case above runs on both instances except the two guarantees:
   their rates (up to 300 and 600 against 500-bit packets) are not
   dyadic, and the fixed-point tags' rounding may overshoot the exact
   bounds' 1e-6 slack. *)
let () =
  let q = QCheck_alcotest.to_alcotest in
  let case name f g = Alcotest.test_case name `Quick (both f g) in
  Alcotest.run "hsfq"
    [
      ( "construction",
        [
          case "no classifier" F.test_no_classifier P.test_no_classifier;
          case "bad weight" F.test_bad_weight P.test_bad_weight;
          case "leaf parent rejected" F.test_leaf_parent_rejected P.test_leaf_parent_rejected;
          case "internal target rejected" F.test_classifier_to_internal_rejected
            P.test_classifier_to_internal_rejected;
          case "foreign class rejected" F.test_foreign_class_rejected
            P.test_foreign_class_rejected;
        ] );
      ( "scheduling",
        [
          case "single leaf fifo" F.test_single_leaf_fifo P.test_single_leaf_fifo;
          case "two leaves interleave" F.test_two_leaves_interleave
            P.test_two_leaves_interleave;
          case "weighted leaves" F.test_weighted_leaves P.test_weighted_leaves;
          case "backlog aggregates" F.test_backlog_aggregates P.test_backlog_aggregates;
          case "peek" F.test_peek_matches_dequeue P.test_peek_matches_dequeue;
          case "no stale credit" F.test_idle_class_no_stale_credit
            P.test_idle_class_no_stale_credit;
        ] );
      ( "nested",
        [
          case "B idle" F.test_nested_b_idle P.test_nested_b_idle;
          case "B active" F.test_nested_b_active P.test_nested_b_active;
          case "class vtime" F.test_class_vtime_accessor P.test_class_vtime_accessor;
        ] );
      ( "three levels",
        [
          case "recursive shares" F.test_three_levels P.test_three_levels;
          case "drains" F.test_three_levels_drain P.test_three_levels_drain;
        ] );
      ("mixed", [ case "Delay EDD leaf" F.test_edd_leaf P.test_edd_leaf ]);
      ( "guarantees",
        [
          q prop_class_fairness_under_fluctuation;
          Alcotest.test_case "eq. 65 virtual server" `Quick test_virtual_server_fc;
        ] );
      ("properties", [ q prop_conservation ]);
      ( "lifecycle",
        [
          case "evict empties classes to root" F.test_evict_to_root P.test_evict_to_root;
          case "reopen at max(v, F_prev)" F.test_reopen_at_fprev P.test_reopen_at_fprev;
          case "close flow oldest first" F.test_close_oldest_first P.test_close_oldest_first;
        ] );
      ( "leaf drops",
        [
          case "drop-tail leaf keeps size" (F.test_dropping_leaf Buffered.Drop_tail)
            (P.test_dropping_leaf Buffered.Drop_tail);
          case "drop-front leaf keeps size" (F.test_dropping_leaf Buffered.Drop_front)
            (P.test_dropping_leaf Buffered.Drop_front);
        ] );
    ]
