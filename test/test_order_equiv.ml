(* Differential tests for the O(log F) scheduling hot path.

   The per-flow-heap schedulers (Sfq, and SCFQ, Virtual Clock, FQS and
   WF2Q as float rank programs on the Pifo_sched float store) must be
   packet-for-packet identical to the seed per-packet-heap
   implementations frozen in Sfq_sched.Ref_sched, on randomized
   workloads with mixed weights, tag collisions, idle gaps and
   dequeues-on-empty, under all three tie rules and both SFQ busy
   rules. Also unit-tests the new substrate: Fheap, Flow_heap, the
   dense Flow_table fast path, and Ds_heap's honored capacity. *)

open Sfq_util
open Sfq_base
open Sfq_sched
module Pifo_sched = Sfq_pifo.Pifo_sched
module Programs = Sfq_pifo.Programs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Fheap                                                                *)

let test_fheap_sorts () =
  let rng = Rng.create 11 in
  let h = Fheap.create ~capacity:4 () in
  let items =
    List.init 500 (fun uid ->
        (float_of_int (Rng.int rng 20) *. 0.5, float_of_int (Rng.int rng 3), uid))
  in
  List.iter (fun (key, tie, uid) -> Fheap.add h ~key ~tie ~uid (key, tie, uid)) items;
  check_int "length" 500 (Fheap.length h);
  let expected = List.sort compare items in
  let popped =
    List.init 500 (fun _ ->
        match Fheap.pop h with Some (_, x) -> x | None -> Alcotest.fail "early empty")
  in
  Alcotest.(check bool) "pop order = sorted (key, tie, uid)" true (popped = expected);
  check_bool "drained" true (Fheap.is_empty h)

let test_fheap_pop_returns_key () =
  let h = Fheap.create () in
  Fheap.add h ~key:2.5 ~tie:0.0 ~uid:0 "b";
  Fheap.add h ~key:1.5 ~tie:0.0 ~uid:1 "a";
  (match Fheap.min h with
  | Some (k, v) ->
    Alcotest.(check (float 0.0)) "min key" 1.5 k;
    Alcotest.(check string) "min payload" "a" v
  | None -> Alcotest.fail "empty");
  Alcotest.(check (float 0.0)) "min_key_exn" 1.5 (Fheap.min_key_exn h);
  (match Fheap.pop h with
  | Some (k, v) ->
    Alcotest.(check (float 0.0)) "popped key" 1.5 k;
    Alcotest.(check string) "popped payload" "a" v
  | None -> Alcotest.fail "empty");
  check_int "one left" 1 (Fheap.length h)

let test_fheap_empty () =
  let h = Fheap.create () in
  check_bool "is_empty" true (Fheap.is_empty h);
  check_bool "pop none" true (Fheap.pop h = None);
  check_bool "min none" true (Fheap.min h = None);
  Alcotest.check_raises "min_key_exn raises"
    (Invalid_argument "Fheap.min_key_exn: empty heap") (fun () ->
      ignore (Fheap.min_key_exn h));
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Fheap.create: capacity must be >= 1") (fun () ->
      ignore (Fheap.create ~capacity:0 ()))

let test_fheap_clear () =
  let h = Fheap.create () in
  for i = 0 to 9 do
    Fheap.add h ~key:(float_of_int i) ~tie:0.0 ~uid:i i
  done;
  Fheap.clear h;
  check_bool "empty after clear" true (Fheap.is_empty h);
  Fheap.add h ~key:3.0 ~tie:0.0 ~uid:42 42;
  check_bool "usable after clear" true (Fheap.pop_elt h = Some 42)

(* ------------------------------------------------------------------ *)
(* Flow stores vs a single global heap

   One random op stream — pushes with per-flow non-decreasing keys,
   pops, oldest/newest evictions and whole-flow flushes — drives a
   store and a reference Ds_heap of (key, tie, uid, flow) entries,
   uids in push order. Exact stores (Flow_heap, Iflow_heap) must pop
   the reference minimum; SP-PIFO's bank store pops in arrival order
   at one bank and, at more banks, some queued entry with its own key.
   Every store must evict a flow's oldest/newest entry by arrival,
   flush oldest first, and keep size and per-flow backlog exact.       *)

type entry = { key : int; tie : int; uid : int; flow : int }

type store = {
  push : entry -> unit;
  pop : unit -> (int * int * int) option;  (* key, uid, flow *)
  evict : newest:bool -> int -> (int * int) option;  (* uid, flow *)
  flush : int -> (int * int) list;
  size : unit -> int;
  backlog : int -> int;
}

let nflows = 12

(* [order]: the reference's pop order, or [None] when only membership
   can be checked. *)
let check_store_differential ~ties ?order (st : store) =
  let rng = Rng.create 7 in
  let cmp = Option.value order ~default:(fun a b -> compare a.uid b.uid) in
  let reference = Ds_heap.create ~cmp () in
  let last_key = Array.make nflows 0 in
  let uid = ref 0 in
  let remove_where pred =
    let gone, keep = List.partition pred (Ds_heap.to_sorted_list reference) in
    Ds_heap.clear reference;
    List.iter (Ds_heap.add reference) keep;
    gone
  in
  let of_flow f =
    List.sort (fun a b -> compare a.uid b.uid) (remove_where (fun e -> e.flow = f))
  in
  let uid_flow e = (e.uid, e.flow) in
  for _ = 1 to 4000 do
    let r = Rng.float rng 1.0 and f = Rng.int rng nflows in
    if r < 0.5 then begin
      last_key.(f) <- last_key.(f) + Rng.int rng 3;
      let tie = if ties then f mod 3 else 0 in
      let e = { key = last_key.(f); tie; uid = !uid; flow = f } in
      st.push e;
      Ds_heap.add reference e;
      incr uid
    end
    else if r < 0.86 then begin
      match (st.pop (), order) with
      | None, _ ->
        check_bool "store empty iff reference empty" true (Ds_heap.is_empty reference)
      | Some (key, u, flow), Some _ ->
        let e = Ds_heap.pop_min_exn reference in
        check_int "popped uid" e.uid u;
        check_int "popped flow" e.flow flow;
        check_int "popped key" e.key key
      | Some (key, u, flow), None -> (
        match remove_where (fun e -> e.uid = u) with
        | [ e ] ->
          check_int "popped flow" e.flow flow;
          check_int "popped key" e.key key
        | _ -> Alcotest.failf "popped uid %d is not queued" u)
    end
    else if r < 0.95 then begin
      let newest = r >= 0.905 in
      let mine = of_flow f in
      let want =
        match mine with
        | [] -> None
        | _ -> Some (List.nth mine (if newest then List.length mine - 1 else 0))
      in
      List.iter
        (fun e ->
          match want with
          | Some w when w.uid = e.uid -> ()
          | _ -> Ds_heap.add reference e)
        mine;
      check_bool "evicted by arrival" true (st.evict ~newest f = Option.map uid_flow want)
    end
    else
      check_bool "flushed oldest first" true (st.flush f = List.map uid_flow (of_flow f));
    check_int "sizes agree" (Ds_heap.length reference) (st.size ());
    let f = Rng.int rng nflows in
    check_int "backlog agrees"
      (List.length (List.filter (fun e -> e.flow = f) (Ds_heap.to_sorted_list reference)))
      (st.backlog f)
  done

let exact_order a b = compare (a.key, a.tie, a.uid) (b.key, b.tie, b.uid)

let test_flow_heap_matches_global_heap () =
  (* float keys in half steps, so the int reference is exact *)
  let fh = Flow_heap.create () in
  let out (p : (int * int) Flow_heap.popped) =
    let key = int_of_float (p.Flow_heap.key *. 2.0) in
    Alcotest.(check (float 0.0)) "aux" (p.Flow_heap.key +. 1.0) p.Flow_heap.aux;
    check_bool "payload" true (p.Flow_heap.value = (p.Flow_heap.flow, p.Flow_heap.uid));
    (key, p.Flow_heap.uid, p.Flow_heap.flow)
  in
  let uf p = (p.Flow_heap.uid, p.Flow_heap.flow) in
  check_store_differential ~ties:true ~order:exact_order
    {
      push =
        (fun e ->
          let key = float_of_int e.key *. 0.5 in
          Flow_heap.push fh ~flow:e.flow ~key ~aux:(key +. 1.0) ~tie:(float_of_int e.tie)
            (e.flow, e.uid));
      pop = (fun () -> Option.map out (Flow_heap.pop fh));
      evict =
        (fun ~newest f ->
          Option.map uf
            ((if newest then Flow_heap.evict_back else Flow_heap.evict_front) fh f));
      flush = (fun f -> List.map uf (Flow_heap.flush_flow fh f));
      size = (fun () -> Flow_heap.size fh);
      backlog = Flow_heap.backlog fh;
    }

let test_iflow_heap_matches_global_heap () =
  let ih = Iflow_heap.create () in
  let uf p = (p.Iflow_heap.uid, p.Iflow_heap.flow) in
  check_store_differential ~ties:true ~order:exact_order
    {
      push =
        (fun e ->
          Iflow_heap.push ih ~flow:e.flow ~key:e.key ~aux:(e.key + 1) ~tie:e.tie
            (e.flow, e.uid));
      pop =
        (fun () ->
          if Iflow_heap.is_empty ih then None
          else begin
            (* the non-allocating pop and its scratch slots *)
            let v = Iflow_heap.pop_exn ih in
            let key = Iflow_heap.last_key ih in
            check_int "aux" (key + 1) (Iflow_heap.last_aux ih);
            check_bool "payload" true
              (v = (Iflow_heap.last_flow ih, Iflow_heap.last_uid ih));
            Some (key, Iflow_heap.last_uid ih, Iflow_heap.last_flow ih)
          end);
      evict =
        (fun ~newest f ->
          Option.map uf
            ((if newest then Iflow_heap.evict_back else Iflow_heap.evict_front) ih f));
      flush = (fun f -> List.map uf (Iflow_heap.flush_flow ih f));
      size = (fun () -> Iflow_heap.size ih);
      backlog = Iflow_heap.backlog ih;
    }

(* The bank store carries packets; a packet's seq is its entry uid + 1. *)
let bank_store ~banks =
  let b = Sfq_pifo.Sp_pifo.create ~banks in
  let uf (p : Packet.t) = (p.Packet.seq - 1, p.Packet.flow) in
  {
    push =
      (fun e ->
        Sfq_pifo.Sp_pifo.push b ~key:e.key ~aux:(e.key + 1)
          (Packet.make ~flow:e.flow ~seq:(e.uid + 1) ~len:100 ~born:0.0 ()));
    pop =
      (fun () ->
        if Sfq_pifo.Sp_pifo.is_empty b then None
        else begin
          let p = Sfq_pifo.Sp_pifo.pop_exn b in
          let key = Sfq_pifo.Sp_pifo.last_key b in
          check_int "aux" (key + 1) (Sfq_pifo.Sp_pifo.last_aux b);
          let u, flow = uf p in
          Some (key, u, flow)
        end);
    evict =
      (fun ~newest f ->
        Option.map uf
          ((if newest then Sfq_pifo.Sp_pifo.evict_back else Sfq_pifo.Sp_pifo.evict_front)
             b f));
    flush = (fun f -> List.map uf (Sfq_pifo.Sp_pifo.flush_flow b f));
    size = (fun () -> Sfq_pifo.Sp_pifo.size b);
    backlog = Sfq_pifo.Sp_pifo.backlog b;
  }

let test_bank_store_one_bank_is_fifo () =
  check_store_differential ~ties:false
    ~order:(fun a b -> compare a.uid b.uid)
    (bank_store ~banks:1)

let test_bank_store_bookkeeping () =
  check_store_differential ~ties:false (bank_store ~banks:8)

let test_flow_heap_accounting () =
  let fh = Flow_heap.create () in
  check_bool "empty" true (Flow_heap.is_empty fh);
  Flow_heap.push fh ~flow:3 ~key:1.0 ~tie:0.0 "a";
  Flow_heap.push fh ~flow:3 ~key:2.0 ~tie:0.0 "b";
  Flow_heap.push fh ~flow:5 ~key:1.5 ~tie:0.0 "c";
  check_int "size" 3 (Flow_heap.size fh);
  check_int "backlog 3" 2 (Flow_heap.backlog fh 3);
  check_int "backlog 5" 1 (Flow_heap.backlog fh 5);
  check_int "backlog other" 0 (Flow_heap.backlog fh 9);
  check_int "active flows" 2 (Flow_heap.active_flows fh);
  (match Flow_heap.peek fh with
  | Some p -> check_bool "peek head" true (p.Flow_heap.value = "a")
  | None -> Alcotest.fail "peek empty");
  check_int "peek keeps size" 3 (Flow_heap.size fh);
  let order = List.init 3 (fun _ -> (Option.get (Flow_heap.pop fh)).Flow_heap.value) in
  check_bool "pop order" true (order = [ "a"; "c"; "b" ]);
  check_int "active after drain" 0 (Flow_heap.active_flows fh)

(* ------------------------------------------------------------------ *)
(* Flow_table dense fast path                                           *)

let test_flow_table_dense_and_sparse () =
  let t = Flow_table.create ~default:(fun f -> 10 * f) in
  check_int "dense default" 30 (Flow_table.find t 3);
  check_int "sparse default" (-20) (Flow_table.find t (-2));
  Flow_table.set t 3 7;
  Flow_table.set t 1_500_000 8;
  (* beyond the dense range *)
  Flow_table.set t (-2) 9;
  check_int "dense set" 7 (Flow_table.find t 3);
  check_int "big id set" 8 (Flow_table.find t 1_500_000);
  check_int "negative id set" 9 (Flow_table.find t (-2));
  check_int "length" 3 (Flow_table.length t);
  check_bool "find_opt misses without creating" true (Flow_table.find_opt t 4 = None);
  check_int "length unchanged" 3 (Flow_table.length t);
  Alcotest.(check (list int)) "flows sorted" [ -2; 3; 1_500_000 ] (Flow_table.flows t);
  let sum = Flow_table.fold t ~init:0 ~f:(fun _ v acc -> acc + v) in
  check_int "fold over both regions" 24 sum;
  Flow_table.remove t 3;
  check_bool "removed" false (Flow_table.mem t 3);
  check_int "length after remove" 2 (Flow_table.length t);
  check_int "recreated from default" 30 (Flow_table.find t 3);
  Flow_table.clear t;
  check_int "cleared" 0 (Flow_table.length t);
  check_bool "cleared mem" false (Flow_table.mem t 1_500_000)

let test_flow_table_growth () =
  let t = Flow_table.create ~default:(fun _ -> 0) in
  for f = 0 to 2_000 do
    Flow_table.set t f f
  done;
  check_int "length" 2_001 (Flow_table.length t);
  let ok = ref true in
  for f = 0 to 2_000 do
    if Flow_table.find t f <> f then ok := false
  done;
  check_bool "all retained across growth" true !ok

(* ------------------------------------------------------------------ *)
(* Ds_heap capacity                                                     *)

let test_ds_heap_capacity () =
  let h = Ds_heap.create ~capacity:4 ~cmp:compare () in
  for i = 9 downto 0 do
    Ds_heap.add h i
  done;
  Alcotest.(check (list int)) "still sorts past capacity" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (Ds_heap.to_sorted_list h);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Ds_heap.create: capacity must be >= 1") (fun () ->
      ignore (Ds_heap.create ~capacity:0 ~cmp:compare ()))

(* ------------------------------------------------------------------ *)
(* Randomized order equivalence: production vs frozen seed schedulers   *)

type op = Enq of float * Packet.t | Deq of float

(* A workload that stresses every branch: quantized arrival times and a
   small weight/length pool so tags collide (exercising tie rules),
   occasional large time gaps with full drains (busy-period ends),
   dequeues against an empty queue (idle polling), per-packet rate
   overrides, and deep per-flow backlogs. *)
let gen_workload rng ~nflows ~npkts =
  let seqs = Array.make nflows 0 in
  let now = ref 0.0 in
  let queued = ref 0 in
  let enqueued = ref 0 in
  let ops = ref [] in
  while !enqueued < npkts || !queued > 0 do
    if Rng.float rng 1.0 < 0.02 then now := !now +. Rng.float rng 50.0
    else now := !now +. (float_of_int (Rng.int rng 4) *. 0.25);
    let enq_allowed = !enqueued < npkts in
    let do_enq =
      enq_allowed
      && (if !queued = 0 then Rng.float rng 1.0 < 0.9 else Rng.float rng 1.0 < 0.55)
    in
    if do_enq then begin
      let flow = Rng.int rng nflows in
      seqs.(flow) <- seqs.(flow) + 1;
      let len = (1 + Rng.int rng 4) * 500 in
      let rate =
        if Rng.float rng 1.0 < 0.05 then Some (float_of_int (1 + Rng.int rng 3) *. 400.0)
        else None
      in
      ops := Enq (!now, Packet.make ?rate ~flow ~seq:seqs.(flow) ~len ~born:!now ()) :: !ops;
      incr enqueued;
      incr queued
    end
    else begin
      ops := Deq !now :: !ops;
      if !queued > 0 then decr queued
    end
  done;
  ops := Deq !now :: Deq !now :: !ops;
  List.rev !ops

type driver = {
  enq : now:float -> Packet.t -> unit;
  deq : now:float -> Packet.t option;
  post : unit -> unit;  (* extra invariant checks after each dequeue *)
}

let run_pair ~name ops production reference =
  List.iter
    (fun op ->
      match op with
      | Enq (now, p) ->
        production.enq ~now p;
        reference.enq ~now p
      | Deq now -> begin
        let x = production.deq ~now in
        let y = reference.deq ~now in
        (match (x, y) with
        | None, None -> ()
        | Some p, Some q ->
          if p.Packet.flow <> q.Packet.flow || p.Packet.seq <> q.Packet.seq then
            Alcotest.failf "%s: got flow %d seq %d, seed emitted flow %d seq %d" name
              p.Packet.flow p.Packet.seq q.Packet.flow q.Packet.seq
        | Some p, None ->
          Alcotest.failf "%s: emitted flow %d seq %d where seed was empty" name
            p.Packet.flow p.Packet.seq
        | None, Some q ->
          Alcotest.failf "%s: empty where seed emitted flow %d seq %d" name q.Packet.flow
            q.Packet.seq);
        production.post ();
        reference.post ()
      end)
    ops

let nflows = 40
let npkts = 12_000
let rate_pool = [| 250.0; 500.0; 1000.0; 1000.0; 2000.0; 4000.0 |]

let make_weights rng =
  Weights.of_list
    (List.init nflows (fun f -> (f, rate_pool.(Rng.int rng (Array.length rate_pool)))))

let ties w =
  let lookup f = Weights.get w f in
  [
    ("arrival", Tag_queue.Arrival);
    ("low-rate", Tag_queue.Low_rate lookup);
    ("high-rate", Tag_queue.High_rate lookup);
  ]

let no_post = fun () -> ()

let test_sfq_equivalence () =
  List.iter
    (fun (busy_name, busy, ref_busy) ->
      let rng = Rng.create 1001 in
      let w = make_weights rng in
      List.iter
        (fun (tie_name, tie) ->
          let ops = gen_workload (Rng.create 42) ~nflows ~npkts in
          let s = Sfq_core.Sfq.create ~tie ~busy_rule:busy w in
          let r = Ref_sched.Sfq_ref.create ~tie ~busy_rule:ref_busy w in
          let vtimes_agree () =
            let a = Sfq_core.Sfq.vtime s and b = Ref_sched.Sfq_ref.vtime r in
            if a <> b then
              Alcotest.failf "sfq/%s/%s vtime diverged: %.17g vs %.17g" busy_name
                tie_name a b
          in
          run_pair
            ~name:(Printf.sprintf "sfq/%s/%s" busy_name tie_name)
            ops
            {
              enq = Sfq_core.Sfq.enqueue s;
              deq = (fun ~now -> Sfq_core.Sfq.dequeue s ~now);
              post = vtimes_agree;
            }
            {
              enq = Ref_sched.Sfq_ref.enqueue r;
              deq = (fun ~now -> Ref_sched.Sfq_ref.dequeue r ~now);
              post = no_post;
            };
          check_int
            (Printf.sprintf "sfq/%s/%s drained" busy_name tie_name)
            0 (Sfq_core.Sfq.size s))
        (ties w))
    [
      ("idle-poll", Sfq_core.Sfq.Idle_poll, Ref_sched.Sfq_ref.Idle_poll);
      ("on-empty", Sfq_core.Sfq.On_empty, Ref_sched.Sfq_ref.On_empty);
    ]

let test_scfq_equivalence () =
  let rng = Rng.create 1002 in
  let w = make_weights rng in
  List.iter
    (fun (tie_name, tie) ->
      let ops = gen_workload (Rng.create 43) ~nflows ~npkts in
      let s = Pifo_sched.create ~tie (Programs.scfq_float w) in
      let r = Ref_sched.Scfq_ref.create ~tie w in
      let vtimes_agree () =
        if Pifo_sched.vtime s <> Ref_sched.Scfq_ref.vtime r then
          Alcotest.failf "scfq/%s vtime diverged" tie_name
      in
      run_pair
        ~name:(Printf.sprintf "scfq/%s" tie_name)
        ops
        {
          enq = Pifo_sched.enqueue s;
          deq = (fun ~now -> Pifo_sched.dequeue s ~now);
          post = vtimes_agree;
        }
        {
          enq = Ref_sched.Scfq_ref.enqueue r;
          deq = (fun ~now -> Ref_sched.Scfq_ref.dequeue r ~now);
          post = no_post;
        })
    (ties w)

let test_virtual_clock_equivalence () =
  let rng = Rng.create 1003 in
  let w = make_weights rng in
  List.iter
    (fun (tie_name, tie) ->
      let ops = gen_workload (Rng.create 44) ~nflows ~npkts in
      let s = Pifo_sched.create ~tie (Programs.virtual_clock_float w) in
      let r = Ref_sched.Virtual_clock_ref.create ~tie w in
      run_pair
        ~name:(Printf.sprintf "virtual-clock/%s" tie_name)
        ops
        {
          enq = Pifo_sched.enqueue s;
          deq = (fun ~now -> Pifo_sched.dequeue s ~now);
          post = no_post;
        }
        {
          enq = Ref_sched.Virtual_clock_ref.enqueue r;
          deq = (fun ~now -> Ref_sched.Virtual_clock_ref.dequeue r ~now);
          post = no_post;
        })
    (ties w)

let capacity = 8000.0

let test_fqs_equivalence () =
  let rng = Rng.create 1004 in
  let w = make_weights rng in
  List.iter
    (fun (tie_name, tie) ->
      let ops = gen_workload (Rng.create 45) ~nflows ~npkts in
      let s = Pifo_sched.create ~tie (Programs.fqs_float ~capacity w) in
      let r = Ref_sched.Fqs_ref.create ~capacity ~tie w in
      run_pair
        ~name:(Printf.sprintf "fqs/%s" tie_name)
        ops
        {
          enq = Pifo_sched.enqueue s;
          deq = (fun ~now -> Pifo_sched.dequeue s ~now);
          post = no_post;
        }
        {
          enq = Ref_sched.Fqs_ref.enqueue r;
          deq = (fun ~now -> Ref_sched.Fqs_ref.dequeue r ~now);
          post = no_post;
        })
    (ties w)

let test_wf2q_equivalence () =
  let rng = Rng.create 1005 in
  let w = make_weights rng in
  List.iter
    (fun (tie_name, tie) ->
      let ops = gen_workload (Rng.create 46) ~nflows ~npkts in
      let s = Pifo_sched.create ~tie (Programs.wf2q_float ~capacity w) in
      let r = Ref_sched.Wf2q_ref.create ~capacity ~tie w in
      run_pair
        ~name:(Printf.sprintf "wf2q/%s" tie_name)
        ops
        {
          enq = Pifo_sched.enqueue s;
          deq = (fun ~now -> Pifo_sched.dequeue s ~now);
          post = no_post;
        }
        {
          enq = Ref_sched.Wf2q_ref.enqueue r;
          deq = (fun ~now -> Ref_sched.Wf2q_ref.dequeue r ~now);
          post = no_post;
        })
    (ties w)


(* ------------------------------------------------------------------ *)
(* Lifecycle pin: one MD5 per discipline over every (flow, seq) that
   dequeue, evict and close_flow hand back while Run.fixed_rate replays
   the stress pool (churn, finite-buffer overload, rate fluctuation)
   and the theorem pool. The seed copies in Ref_sched have no evict or
   close, and Delay-EDD and LSTF have no seed copy at all, so these
   digests are the lifecycle reference. *)

module O = Sfq_oracle

let recording (s : Sched.t) buf =
  let note kind (p : Packet.t) =
    Buffer.add_string buf (Printf.sprintf "%c%d.%d " kind p.Packet.flow p.Packet.seq)
  in
  {
    s with
    Sched.dequeue =
      (fun ~now ->
        let r = s.Sched.dequeue ~now in
        Option.iter (note 'd') r;
        r);
    evict =
      (fun ~now victim flow ->
        let r = s.Sched.evict ~now victim flow in
        Option.iter (note 'e') r;
        r);
    close_flow =
      (fun ~now flow ->
        let r = s.Sched.close_flow ~now flow in
        List.iter (note 'c') r;
        r);
  }

let pin_weights (w : O.Workload.t) = Weights.of_list ~default:1.0 w.O.Workload.weights

let pin_specs (w : O.Workload.t) =
  List.map
    (fun (f, r) -> (f, { Delay_edd.rate = r; deadline = 1.0; max_len = 1000 }))
    w.O.Workload.weights

(* Caller deadlines with no per-flow ordering promise, so the floor
   clamp is exercised. *)
let pin_deadline p =
  let k = ((p.Packet.seq * 7) + (p.Packet.flow * 3)) mod 5 in
  p.Packet.born +. (float_of_int k *. 1e-3)

let pin ?tie prog = Pifo_sched.(sched (create ?tie prog))

let pin_discs =
  [
    ("scfq", fun w -> pin (Programs.scfq_float (pin_weights w)));
    ("virtual-clock", fun w -> pin (Programs.virtual_clock_float (pin_weights w)));
    ( "fqs",
      fun w -> pin (Programs.fqs_float ~capacity:w.O.Workload.capacity (pin_weights w)) );
    ( "wf2q",
      fun w -> pin (Programs.wf2q_float ~capacity:w.O.Workload.capacity (pin_weights w)) );
    ("delay-edd", fun w -> pin (Programs.delay_edd_float (pin_specs w)));
    ("lstf", fun _ -> pin (Programs.lstf_float ~deadline:pin_deadline ()));
    ( "scfq/high-rate",
      fun w ->
        let wt = pin_weights w in
        pin ~tie:(Tag_queue.High_rate (Weights.get wt)) (Programs.scfq_float wt) );
    ( "wf2q/low-rate",
      fun w ->
        let wt = pin_weights w in
        pin
          ~tie:(Tag_queue.Low_rate (Weights.get wt))
          (Programs.wf2q_float ~capacity:w.O.Workload.capacity wt) );
  ]

let pin_expected =
  [
    ("scfq", "d9f2c4018e9fe10e0a65fcc6fc7a43cd");
    ("virtual-clock", "e5d33d02a0f921467c7ca011df8091d2");
    ("fqs", "7e6c0d7f3f2f9ed5c943a4ee26816bf1");
    ("wf2q", "f2304c439b03d3d5b611e0f160d8e711");
    ("delay-edd", "40db0fc3df1b6b7d4d6bfac649acd581");
    ("lstf", "beb2857712bc0c3c02e6962dc01a5cc5");
    ("scfq/high-rate", "3c253284d3124bafe77a4edf6f4ba190");
    ("wf2q/low-rate", "7bd7d89e7f0dbe8c32e9ad1b15c0ce10");
  ]

let pool_digest run =
  let buf = Buffer.create 65536 in
  List.iter
    (fun w ->
      run buf w;
      Buffer.add_char buf '|')
    (O.Suite.stress_pool @ O.Suite.theorem_pool);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_lifecycle_pin () =
  List.iter
    (fun (name, make) ->
      Alcotest.(check string)
        (name ^ " lifecycle digest")
        (List.assoc name pin_expected)
        (pool_digest (fun buf w ->
             ignore (O.Run.fixed_rate ~sched:(recording (make w) buf) ~monitors:[] w))))
    pin_discs

(* Class trees get the same pin: one MD5 per configuration over every
   (flow, seq) handed back plus the [%h] virtual time of every internal
   class after each op, so a change to the shared tag rules shows even
   where the service order survives it. Class weights and the pools'
   leaf rates are non-dyadic, so the float tree and the fixed-point
   tree each pin their own arithmetic. *)

(* Two levels: root{A{even flows}, B{odd flows}}. Three levels:
   root{A{A1{f mod 3 = 0}, A2{f mod 3 = 1}}, B{f mod 3 = 2}}. Each flow
   gets its own leaf at its reserved rate, or with [shared] the flows
   of a group share one leaf, so removals hit a leaf that stays
   backlogged. Returns the tree's Sched.t and a reader of its internal
   classes' virtual times. *)
let pin_tree (type t) (module T : Sfq_core.Hsfq.TREE with type t = t) (h : t) ~shared
    ~levels ~leaf (w : O.Workload.t) =
  let root = T.root h in
  let a = T.add_class h ~parent:root ~weight:3.0 in
  let b = T.add_class h ~parent:root ~weight:1.0 in
  let groups, internal =
    if levels = 2 then ([| a; b |], [ root; a; b ])
    else begin
      let a1 = T.add_class h ~parent:a ~weight:1.0 in
      let a2 = T.add_class h ~parent:a ~weight:2.5 in
      ([| a1; a2; b |], [ root; a; b; a1; a2 ])
    end
  in
  let group_leaf =
    Array.map (fun parent -> lazy (T.add_leaf h ~parent ~weight:1.5 (leaf w))) groups
  in
  let leaves =
    List.map
      (fun (f, r) ->
        let g = f mod Array.length groups in
        if shared then (f, Lazy.force group_leaf.(g))
        else (f, T.add_leaf h ~parent:groups.(g) ~weight:r (leaf w)))
      w.O.Workload.weights
  in
  T.set_classifier h (T.classifier_by_flow leaves);
  (T.sched h, fun () -> List.map (T.class_vtime h) internal)

(* [recording] plus the internal classes' virtual times after every
   op, enqueue included. *)
let recording_tree (s, vtimes) buf =
  let note_v () =
    List.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%h," v)) (vtimes ());
    Buffer.add_char buf ' '
  in
  let r = recording s buf in
  let after f =
    let x = f () in
    note_v ();
    x
  in
  {
    r with
    Sched.enqueue = (fun ~now p -> after (fun () -> r.Sched.enqueue ~now p));
    dequeue = (fun ~now -> after (fun () -> r.Sched.dequeue ~now));
    evict = (fun ~now victim flow -> after (fun () -> r.Sched.evict ~now victim flow));
    close_flow = (fun ~now flow -> after (fun () -> r.Sched.close_flow ~now flow));
  }

module Hsfq = Sfq_core.Hsfq
module Ptree = Sfq_pifo.Pifo_tree

let hsfq ~shared ~levels ~leaf w =
  pin_tree (module Hsfq) (Hsfq.create ()) ~shared ~levels ~leaf w

let ptree ~shared ~levels ~leaf w =
  pin_tree (module Ptree) (Ptree.create ()) ~shared ~levels ~leaf w

let sfq_leaf w = Sfq_core.Sfq.(sched (create (pin_weights w)))
let fifo_leaf _ = Fifo.sched (Fifo.create ())
let pifo_sfq_leaf w = pin (Programs.sfq (pin_weights w))

let tree_pins =
  [
    ("hsfq/2-level/sfq", hsfq ~shared:false ~levels:2 ~leaf:sfq_leaf);
    ("hsfq/3-level/sfq", hsfq ~shared:false ~levels:3 ~leaf:sfq_leaf);
    ("hsfq/2-level/shared-fifo", hsfq ~shared:true ~levels:2 ~leaf:fifo_leaf);
    ("pifo-tree/2-level/pifo-sfq", ptree ~shared:false ~levels:2 ~leaf:pifo_sfq_leaf);
    ("pifo-tree/3-level/pifo-sfq", ptree ~shared:false ~levels:3 ~leaf:pifo_sfq_leaf);
    ("pifo-tree/2-level/shared-fifo", ptree ~shared:true ~levels:2 ~leaf:fifo_leaf);
  ]

let tree_pin_expected =
  [
    ("hsfq/2-level/sfq", "1dee44c0c334bb09ca00d610845c0601");
    ("hsfq/3-level/sfq", "5a1416ae82bbfd58628e433f6c2e7ed1");
    ("hsfq/2-level/shared-fifo", "ddded5e896fd3a53f4ffe5698df423aa");
    ("pifo-tree/2-level/pifo-sfq", "002c5becd78e3576f334a5094f2c064e");
    ("pifo-tree/3-level/pifo-sfq", "fa85c45b4a3269ef64dc7c82fb8680b2");
    ("pifo-tree/2-level/shared-fifo", "4878a3b2f8b0a0089f64b1b15cbfcb70");
    ("hsfq/3-level/sfq tag hook", "bdac097948cc3c1ba9ec2f19ded5868a");
  ]

let test_tree_lifecycle_pin () =
  let check name digest =
    Alcotest.(check string) (name ^ " lifecycle digest") (List.assoc name tree_pin_expected)
      digest
  in
  List.iter
    (fun (name, make) ->
      check name
        (pool_digest (fun buf w ->
             ignore
               (O.Run.fixed_rate ~sched:(recording_tree (make w) buf) ~monitors:[] w))))
    tree_pins;
  (* Every child-edge emission the float tree reports to its tag hook. *)
  check "hsfq/3-level/sfq tag hook"
    (pool_digest (fun buf w ->
         let h = Hsfq.create () in
         let s, _ = pin_tree (module Hsfq) h ~shared:false ~levels:3 ~leaf:sfq_leaf w in
         Hsfq.set_tag_hook h (fun ~now:_ ~class_id ~seq ~len ~stag ~ftag ~vtime ->
             Buffer.add_string buf
               (Printf.sprintf "%d.%d.%d:%h:%h:%h " class_id seq len stag ftag vtime));
         ignore (O.Run.fixed_rate ~sched:s ~monitors:[] w)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "order-equiv"
    [
      ( "fheap",
        [
          Alcotest.test_case "sorts (key, tie, uid)" `Quick test_fheap_sorts;
          Alcotest.test_case "pop returns key" `Quick test_fheap_pop_returns_key;
          Alcotest.test_case "empty" `Quick test_fheap_empty;
          Alcotest.test_case "clear" `Quick test_fheap_clear;
        ] );
      ( "flow_heap",
        [
          Alcotest.test_case "matches global heap" `Quick test_flow_heap_matches_global_heap;
          Alcotest.test_case "accounting" `Quick test_flow_heap_accounting;
        ] );
      ( "iflow_heap",
        [
          Alcotest.test_case "matches global heap" `Quick
            test_iflow_heap_matches_global_heap;
        ] );
      ( "bank_store",
        [
          Alcotest.test_case "one bank is FIFO" `Quick test_bank_store_one_bank_is_fifo;
          Alcotest.test_case "bookkeeping at eight banks" `Quick
            test_bank_store_bookkeeping;
        ] );
      ( "flow_table",
        [
          Alcotest.test_case "dense and sparse" `Quick test_flow_table_dense_and_sparse;
          Alcotest.test_case "growth" `Quick test_flow_table_growth;
        ] );
      ( "ds_heap",
        [ Alcotest.test_case "capacity honored" `Quick test_ds_heap_capacity ] );
      ( "order-equivalence",
        [
          Alcotest.test_case "sfq = seed sfq (3 ties x 2 busy rules)" `Quick
            test_sfq_equivalence;
          Alcotest.test_case "scfq = seed scfq" `Quick test_scfq_equivalence;
          Alcotest.test_case "virtual clock = seed" `Quick test_virtual_clock_equivalence;
          Alcotest.test_case "fqs = seed fqs" `Quick test_fqs_equivalence;
          Alcotest.test_case "wf2q = seed wf2q" `Quick test_wf2q_equivalence;
        ] );
      ( "lifecycle-pin",
        [
          Alcotest.test_case "dequeue/evict/close digests" `Quick test_lifecycle_pin;
          Alcotest.test_case "class-tree digests" `Quick test_tree_lifecycle_pin;
        ] );
    ]
