open Sfq_base

type row = {
  disc : string;
  departures : int;
  order_hash : string;
  identical : bool;
}

type result = { seed : int; rows : row list }

(* The dyadic scenario family of the equivalence harness
   (test/test_pifo_equiv.ml): rates and overrides from 100·2^k,
   lengths multiples of 100, clocks in quarter steps — inputs on which
   the fixed-point rank programs promise packet-for-packet identity
   with the float originals, here distilled into a golden-corpus
   experiment (one service-order hash per port). *)
let dyadic_rates = [| 100.0; 200.0; 400.0; 800.0; 1600.0; 3200.0 |]

type action =
  | Enq of Packet.t
  | Deq
  | Evict of Sched.victim * int
  | Close of int

let gen_scenario seed =
  let r = Sfq_util.Rng.create seed in
  let open Sfq_util in
  let nflows = 1 + Rng.int r 4 in
  let weights =
    List.init nflows (fun f -> (f, dyadic_rates.(Rng.int r (Array.length dyadic_rates))))
  in
  let seqs = Array.make nflows 0 in
  let now = ref 0.0 in
  let nops = 160 + Rng.int r 120 in
  let ops = ref [] in
  for _ = 1 to nops do
    now := !now +. (0.25 *. float_of_int (Rng.int r 5));
    let t = !now in
    let a =
      let roll = Rng.int r 100 in
      if roll < 55 then begin
        let f = Rng.int r nflows in
        seqs.(f) <- seqs.(f) + 1;
        let len = 100 * (1 + Rng.int r 15) in
        let rate =
          if Rng.int r 4 = 0 then
            Some dyadic_rates.(Rng.int r (Array.length dyadic_rates))
          else None
        in
        Enq (Packet.make ?rate ~flow:f ~seq:seqs.(f) ~len ~born:t ())
      end
      else if roll < 85 then Deq
      else if roll < 93 then
        Evict ((if Rng.bool r then Sched.Oldest else Sched.Newest), Rng.int r nflows)
      else Close (Rng.int r nflows)
    in
    ops := (t, a) :: !ops
  done;
  (weights, List.rev !ops, !now)

(* Service order over the whole lifetime: every successful dequeue in
   op order, then the final drain. *)
let replay sched ops final =
  let out = ref [] in
  List.iter
    (fun (now, a) ->
      match a with
      | Enq p -> sched.Sched.enqueue ~now p
      | Deq -> (
        match sched.Sched.dequeue ~now with Some p -> out := p :: !out | None -> ())
      | Evict (v, f) -> ignore (sched.Sched.evict ~now v f)
      | Close f -> ignore (sched.Sched.close_flow ~now f))
    ops;
  List.rev_append !out (Sched.drain sched ~now:final)

let order_hash pkts =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map (fun p -> Printf.sprintf "%d.%d" p.Packet.flow p.Packet.seq) pkts)))

let pair ~disc ~mk_float ~mk_pifo (weights, ops, final) =
  let w = Weights.of_list ~default:1.0 weights in
  let a = replay (mk_float w) ops final in
  let b = replay (mk_pifo w) ops final in
  {
    disc;
    departures = List.length b;
    order_hash = order_hash b;
    identical = List.length a = List.length b && List.for_all2 ( == ) a b;
  }

let edd_specs weights =
  List.map
    (fun (f, r) -> (f, { Sfq_sched.Delay_edd.rate = r; deadline = 1.0; max_len = 1500 }))
    weights

let capacity = 800.0

(* Two-level class tree, flows split odd/even: root{200: even flows,
   100: odd flows}, one leaf per flow at the flow's rate. One builder
   for both key domains of the class tree. *)
let hier (type t) (module T : Sfq_core.Hsfq.TREE with type t = t) (h : t) ~leaf weights =
  let group weight flows =
    if flows = [] then []
    else begin
      let parent = T.add_class h ~parent:(T.root h) ~weight in
      List.map
        (fun (f, r) ->
          (f, T.add_leaf h ~parent ~weight:r (leaf (Weights.of_list ~default:1.0 [ (f, r) ]))))
        flows
    end
  in
  let even, odd = List.partition (fun (f, _) -> f mod 2 = 0) weights in
  let leaves = List.concat_map (fun (w, flows) -> group w flows) [ (200.0, even); (100.0, odd) ] in
  T.set_classifier h (T.classifier_by_flow leaves);
  T.sched h

let run ?(seed = 0x26) () =
  let open Sfq_pifo in
  let p prog = Pifo_sched.sched (Pifo_sched.create prog) in
  let rows =
    [
      pair ~disc:"sfq"
        ~mk_float:(fun w -> Sfq_core.Sfq.sched (Sfq_core.Sfq.create w))
        ~mk_pifo:(fun w -> p (Programs.sfq w))
        (gen_scenario seed);
      pair ~disc:"scfq"
        ~mk_float:(fun w -> p (Programs.scfq_float w))
        ~mk_pifo:(fun w -> p (Programs.scfq w))
        (gen_scenario (seed + 1));
      pair ~disc:"vc"
        ~mk_float:(fun w -> p (Programs.virtual_clock_float w))
        ~mk_pifo:(fun w -> p (Programs.virtual_clock w))
        (gen_scenario (seed + 2));
      (let ((weights, _, _) as scenario) = gen_scenario (seed + 3) in
       let specs = edd_specs weights in
       pair ~disc:"edd"
         ~mk_float:(fun _ -> p (Programs.delay_edd_float specs))
         ~mk_pifo:(fun _ -> p (Programs.delay_edd specs))
         scenario);
      pair ~disc:"fqs"
        ~mk_float:(fun w -> p (Programs.fqs_float ~capacity w))
        ~mk_pifo:(fun w -> p (Programs.fqs ~capacity w))
        (gen_scenario (seed + 4));
      pair ~disc:"wf2q"
        ~mk_float:(fun w -> p (Programs.wf2q_float ~capacity w))
        ~mk_pifo:(fun w -> p (Programs.wf2q ~capacity w))
        (gen_scenario (seed + 5));
      (let ((weights, _, _) as scenario) = gen_scenario (seed + 6) in
       pair ~disc:"hsfq"
         ~mk_float:(fun _ ->
           hier (module Sfq_core.Hsfq) (Sfq_core.Hsfq.create ()) weights
             ~leaf:(fun w -> Sfq_core.Sfq.sched (Sfq_core.Sfq.create w)))
         ~mk_pifo:(fun _ ->
           hier (module Pifo_tree) (Pifo_tree.create ()) weights ~leaf:(fun w ->
               p (Programs.sfq w)))
         scenario);
    ]
  in
  { seed; rows }

let print () =
  let r = run () in
  Printf.printf "E26: rank-program ports vs hand-written originals (seed %#x)\n" r.seed;
  List.iter
    (fun row ->
      Printf.printf "  %-5s departures=%-4d order_hash=%s identical=%b\n" row.disc
        row.departures row.order_hash row.identical)
    r.rows
