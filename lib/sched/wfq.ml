open Sfq_base

(* Practical clock: dv/dt = capacity / Σ weights of really-backlogged
   flows; frozen while the queue is empty, reset when the server polls
   an empty queue (end of the real busy period). *)
type real_clock = {
  capacity : float;
  weights : Weights.t;
  mutable v : float;
  mutable updated : float;
  mutable sum : float;
  counts : int Flow_table.t;
  finish : float Flow_table.t;
}

type clock = Fluid of Gps.t | Real of real_clock

type t = { clock : clock; fh : Packet.t Flow_heap.t; tie : Tag_queue.tie }

let create ~capacity ?(clock = `Fluid) ?(tie = Tag_queue.Arrival) weights =
  let fh = Flow_heap.create () in
  let clock =
    match clock with
    | `Fluid ->
      Fluid
        (Gps.create ~capacity
           ~real_system_empty:(fun () -> Flow_heap.is_empty fh)
           weights)
    | `Real ->
      if capacity <= 0.0 then invalid_arg "Wfq.create: capacity must be positive";
      Real
        {
          capacity;
          weights;
          v = 0.0;
          updated = 0.0;
          sum = 0.0;
          counts = Flow_table.create ~default:(fun _ -> 0);
          finish = Flow_table.create ~default:(fun _ -> 0.0);
        }
  in
  { clock; fh; tie }

let advance_real rc ~now =
  if rc.sum > 0.0 then rc.v <- rc.v +. ((now -. rc.updated) *. rc.capacity /. rc.sum);
  rc.updated <- now

let enqueue t ~now pkt =
  let finish_tag =
    match t.clock with
    | Fluid gps ->
      let _start_tag, finish_tag = Gps.on_arrival gps ~now pkt in
      finish_tag
    | Real rc ->
      advance_real rc ~now;
      let flow = pkt.Packet.flow in
      let rate = Weights.get rc.weights flow in
      let start_tag = Float.max rc.v (Flow_table.find rc.finish flow) in
      let finish_tag = start_tag +. (float_of_int pkt.Packet.len /. rate) in
      Flow_table.set rc.finish flow finish_tag;
      let n = Flow_table.find rc.counts flow in
      Flow_table.set rc.counts flow (n + 1);
      if n = 0 then rc.sum <- rc.sum +. rate;
      finish_tag
  in
  let flow = pkt.Packet.flow in
  Flow_heap.push t.fh ~flow ~key:finish_tag ~tie:(Tag_queue.tie_value t.tie flow) pkt

let dequeue t ~now =
  match Flow_heap.pop t.fh with
  | None ->
    (match t.clock with
    | Fluid _ -> () (* the fluid system resets itself per fluid busy period *)
    | Real rc ->
      (* Real busy period over: restart the clock. *)
      advance_real rc ~now;
      rc.v <- 0.0;
      rc.updated <- now;
      Flow_table.clear rc.finish);
    None
  | Some { Flow_heap.value = p; _ } ->
    (match t.clock with
    | Fluid _ -> ()
    | Real rc ->
      advance_real rc ~now;
      let flow = p.Packet.flow in
      let n = Flow_table.find rc.counts flow - 1 in
      Flow_table.set rc.counts flow n;
      if n = 0 then begin
        rc.sum <- rc.sum -. Weights.get rc.weights flow;
        if rc.sum < 1e-9 then rc.sum <- 0.0
      end);
    Some p

let peek t = match Flow_heap.peek t.fh with None -> None | Some e -> Some e.Flow_heap.value
let size t = Flow_heap.size t.fh
let backlog t flow = Flow_heap.backlog t.fh flow

let vtime t ~now =
  match t.clock with
  | Fluid gps -> Gps.vtime gps ~now
  | Real rc ->
    advance_real rc ~now;
    rc.v

(* Removing a packet without serving it must mirror dequeue's
   backlogged-set bookkeeping for the real clock, or [sum] would keep
   counting a drained flow forever and v would run slow. *)
let real_forget_one rc ~now flow =
  advance_real rc ~now;
  let n = Flow_table.find rc.counts flow - 1 in
  Flow_table.set rc.counts flow n;
  if n = 0 then begin
    rc.sum <- rc.sum -. Weights.get rc.weights flow;
    if rc.sum < 1e-9 then rc.sum <- 0.0
  end

let evict t ~now victim flow =
  match Flow_heap.evict t.fh victim flow with
  | None -> None
  | Some p ->
    (match t.clock with Fluid _ -> () | Real rc -> real_forget_one rc ~now flow);
    Some p

let close_flow t ~now flow =
  let flushed = List.map (fun e -> e.Flow_heap.value) (Flow_heap.flush_flow t.fh flow) in
  (match t.clock with
  | Fluid gps -> Gps.forget_flow gps ~now flow
  | Real rc ->
    List.iter (fun _ -> real_forget_one rc ~now flow) flushed;
    Flow_table.remove rc.finish flow);
  flushed

let sched t =
  {
    Sched.name = "wfq";
    enqueue = (fun ~now pkt -> enqueue t ~now pkt);
    dequeue = (fun ~now -> dequeue t ~now);
    peek = (fun () -> peek t);
    size = (fun () -> size t);
    backlog = (fun flow -> backlog t flow);
    evict = (fun ~now victim flow -> evict t ~now victim flow);
    close_flow = (fun ~now flow -> close_flow t ~now flow);
  }
