(* The overloaded-link workloads: one SFQ link behind a finite
   [Buffered] gate, driven without the event simulator.

   Inputs are generated from the seed before timing starts: 4096 flows
   with dyadic rates and dyadic packet lengths, Poisson-like arrivals at
   1.25x the link rate on a 2^-30 s grid, and one random flow closed
   every 64 arrivals. Every value is dyadic, so the fixed-point tags of
   [Sfq_fast] are exact and the departure order must equal float SFQ's
   on the same inputs — the cross-check run outside the timed window. *)

open Sfq_base
module Rng = Sfq_util.Rng

let flows = 4096
let budget = 4 * flows
let link_rate = 16_777_216.0 (* 2^24 b/s *)
let arrivals = 1 lsl 18
let close_every = 64
let overload = 1.25

type input = {
  pkts : Packet.t array;
  at : float array;  (* arrival time of pkts.(i), non-decreasing *)
  closes : int array;  (* flow closed after arrival (k+1)*64 - 1 *)
  weights : Weights.t;
  base : int array;  (* arrival index of each flow's seq 1, for accounting *)
}

let dyadic x = Float.ldexp (Float.round (Float.ldexp x 30)) (-30)

let generate ~seed =
  let rng = Rng.create seed in
  let rate = Array.init flows (fun _ -> Float.ldexp 1.0 (12 + Rng.int rng 4)) in
  let mean_len = (512.0 +. 1024.0 +. 2048.0 +. 4096.0) /. 4.0 in
  let gap = mean_len /. (overload *. link_rate) in
  let seqs = Array.make flows 0 in
  let t = ref 0.0 in
  let flow_of = Array.make arrivals 0 in
  let at = Array.make arrivals 0.0 in
  let len = Array.make arrivals 0 in
  for i = 0 to arrivals - 1 do
    t := !t +. dyadic (Rng.exponential rng ~mean:gap);
    at.(i) <- !t;
    flow_of.(i) <- Rng.int rng flows;
    len.(i) <- 512 lsl Rng.int rng 4
  done;
  let closes = Array.init (arrivals / close_every) (fun _ -> Rng.int rng flows) in
  (* flow-major arrival indices: base.(f) + seq - 1 is unique *)
  let counts = Array.make flows 0 in
  Array.iter (fun f -> counts.(f) <- counts.(f) + 1) flow_of;
  let base = Array.make flows 0 in
  for f = 1 to flows - 1 do
    base.(f) <- base.(f - 1) + counts.(f - 1)
  done;
  let pkts =
    Array.init arrivals (fun i ->
        let f = flow_of.(i) in
        seqs.(f) <- seqs.(f) + 1;
        Packet.make ~flow:f ~seq:seqs.(f) ~len:len.(i) ~born:at.(i) ())
  in
  { pkts; at; closes; weights = Weights.of_fun (fun f -> rate.(f)); base }

let key (p : Packet.t) = (p.Packet.flow lsl 24) lor p.Packet.seq

(* Packet fates, recorded as keys into preallocated arrays. *)
type log = { keys : int array; mutable n : int }

let log () = { keys = Array.make arrivals 0; n = 0 }

let push l p =
  l.keys.(l.n) <- key p;
  l.n <- l.n + 1

type outcome = {
  departed : log;
  dropped : log;
  flushed : log;
  backlog : int;
  gate_drops : int;  (* Buffered.drops, for the drop log's cross-check *)
}

let config policy = Buffered.config ~aggregate:budget ~policy ()

(* [inner] sees the link's scheduler before [Buffered.wrap] and [outer]
   the buffered view after it — the traced run's two timer layers;
   identity otherwise. Returns the buffered view and the bare link
   scheduler alongside the outcome. *)
let run ?(inner = fun s -> s) ?(outer = fun ~drops:_ s -> s) ~disc ~policy inp =
  let departed = log () and dropped = log () and flushed = log () in
  let link = Sfq_experiments.Disc.make disc inp.weights in
  let gate =
    Buffered.wrap ~on_drop:(fun ~now:_ ~reason:_ p -> push dropped p) (config policy) (inner link)
  in
  let s = outer ~drops:(fun () -> Buffered.drops gate) (Buffered.sched gate) in
  let free = ref 0.0 in
  for i = 0 to arrivals - 1 do
    let t = inp.at.(i) in
    (* serve every departure that starts no later than this arrival; an
       empty poll ends the busy period and idles the link until [t] *)
    let busy = ref true in
    while !busy && !free <= t do
      match s.Sched.dequeue ~now:!free with
      | Some p ->
        push departed p;
        free := !free +. (float_of_int p.Packet.len /. link_rate)
      | None ->
        free := t;
        busy := false
    done;
    s.Sched.enqueue ~now:t inp.pkts.(i);
    if i land (close_every - 1) = close_every - 1 then
      List.iter (push flushed) (s.Sched.close_flow ~now:t inp.closes.(i / close_every))
  done;
  ( { departed; dropped; flushed; backlog = s.Sched.size (); gate_drops = Buffered.drops gate },
    s,
    link )

let fnv l =
  let h = ref 0x4bf29ce484222325 in
  for i = 0 to l.n - 1 do
    h := (!h lxor l.keys.(i)) * 0x100000001b3
  done;
  !h land max_int

let digest o =
  Printf.sprintf "dep=%d:%x drop=%d:%x flush=%d backlog=%d" o.departed.n (fnv o.departed)
    o.dropped.n (fnv o.dropped) o.flushed.n o.backlog

(* Output checks, all outside the timed window:
   - conservation: arrivals = departed + dropped + flushed + backlog,
     and the gate's own drop count agrees with the drop log;
   - exact accounting: after draining the backlog, every arrival shows
     up exactly once among the four fates;
   - per-flow FIFO: each flow's departures have increasing seq. *)
let checks inp o (s : Sched.t) =
  let conservation =
    arrivals = o.departed.n + o.dropped.n + o.flushed.n + o.backlog
    && o.gate_drops = o.dropped.n
  in
  let rest = log () in
  List.iter (push rest) (Sched.drain s ~now:infinity);
  let seen = Bytes.make arrivals '\000' in
  let once = ref (rest.n = o.backlog) in
  let mark l =
    for i = 0 to l.n - 1 do
      let k = l.keys.(i) in
      let ix = inp.base.(k lsr 24) + (k land 0xffffff) - 1 in
      if ix < 0 || ix >= arrivals || Bytes.get seen ix <> '\000' then once := false
      else Bytes.set seen ix '\001'
    done
  in
  List.iter mark [ o.departed; o.dropped; o.flushed; rest ];
  let all_seen = Bytes.for_all (fun c -> c = '\001') seen in
  let last = Array.make flows 0 in
  let fifo = ref true in
  for i = 0 to o.departed.n - 1 do
    let k = o.departed.keys.(i) in
    let f = k lsr 24 and q = k land 0xffffff in
    if q <= last.(f) then fifo := false;
    last.(f) <- q
  done;
  [
    ("conservation", conservation);
    ("each-arrival-once", !once && all_seen);
    ("per-flow-fifo", !fifo);
    ("drops-positive", o.dropped.n > 0);
  ]
