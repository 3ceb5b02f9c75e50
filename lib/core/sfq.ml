open Sfq_base
open Sfq_sched

type busy_rule = Idle_poll | On_empty

type tag_hook =
  now:float -> pkt:Packet.t -> stag:float -> ftag:float -> vtime:float -> unit

type t = {
  (* the guard cell is dereferenced before the hook is called: a hook
     whose tracer is off costs one load, not five boxed floats *)
  mutable tag_hook : (bool ref * tag_hook) option;
  weights : Weights.t;
  busy_rule : busy_rule;
  tie : Tag_queue.tie;
  (* key = start tag, aux = finish tag. SFQ serves in start-tag order
     and start tags are non-decreasing within a flow (eq. 4), so only
     each flow's head packet sits in the heap: O(log F) per packet,
     the paper's Table 1 bound, instead of O(log Q). *)
  fh : Packet.t Flow_heap.t;
  finish : float Flow_table.t;  (* F(p_f^{j-1}); never reset — see §2 step 2 *)
  mutable v : float;
  mutable max_finish_served : float;
}

let create ?(tie = Tag_queue.Arrival) ?(busy_rule = Idle_poll) ?capacity weights =
  {
    tag_hook = None;
    weights;
    busy_rule;
    tie;
    fh = Flow_heap.create ?capacity ();
    finish = Flow_table.create ~default:(fun _ -> 0.0);
    v = 0.0;
    max_finish_served = 0.0;
  }

let packet_rate t pkt =
  match pkt.Packet.rate with Some r -> r | None -> Weights.get t.weights pkt.Packet.flow

let enqueue_tagged t ~now pkt =
  let flow = pkt.Packet.flow in
  let stag = Float.max t.v (Flow_table.find t.finish flow) in
  let ftag = stag +. (float_of_int pkt.Packet.len /. packet_rate t pkt) in
  Flow_table.set t.finish flow ftag;
  Flow_heap.push t.fh ~flow ~key:stag ~aux:ftag
    ~tie:(Tag_queue.tie_value t.tie flow)
    pkt;
  (match t.tag_hook with
  | Some (active, h) when !active -> h ~now ~pkt ~stag ~ftag ~vtime:t.v
  | Some _ | None -> ());
  (stag, ftag)

let enqueue t ~now pkt = ignore (enqueue_tagged t ~now pkt)

let dequeue t ~now:_ =
  match Flow_heap.pop t.fh with
  | None ->
    (* The server asked for work and found none: the busy period is
       over (the queue being momentarily empty while a packet is still
       in service does NOT end it — the server only calls dequeue after
       a completion or an arrival). Per §2 step 2, v becomes the max
       finish tag of serviced packets, so a reactivating flow's old
       F(p^{j-1}) can never lag v. *)
    t.v <- Float.max t.v t.max_finish_served;
    None
  | Some { key = stag; aux = ftag; value = pkt; _ } ->
    t.v <- stag;
    if ftag > t.max_finish_served then t.max_finish_served <- ftag;
    if t.busy_rule = On_empty && Flow_heap.is_empty t.fh then
      (* The deliberately wrong variant for the ablation: treats a
         momentarily empty queue as the end of the busy period. *)
      t.v <- t.max_finish_served;
    Some pkt

let set_tag_hook t ?active h =
  let active = match active with Some r -> r | None -> ref true in
  t.tag_hook <- Some (active, h)

let clear_tag_hook t = t.tag_hook <- None

let peek t = match Flow_heap.peek t.fh with None -> None | Some p -> Some p.Flow_heap.value
let size t = Flow_heap.size t.fh
let backlog t flow = Flow_heap.backlog t.fh flow
let vtime t = t.v

(* Eviction keeps the flow's finish tag: the dropped packet's virtual
   service stays charged to the flow (its next start tag only moves
   later), so eviction can never let a flow jump ahead of where it
   would have been — the paper's eq. 4 monotonicity is preserved. *)
let evict t victim flow =
  Flow_heap.evict t.fh victim flow

(* Closing forgets F(p_f^{j-1}), so a later open of the same id starts
   from the default 0 and eq. 4 gives S = max(v, 0) = v(t): the
   returning flow re-enters at the current virtual time, exactly the
   §2 step 1 rule for a freshly active flow. *)
let close_flow t flow =
  let flushed = List.map (fun p -> p.Flow_heap.value) (Flow_heap.flush_flow t.fh flow) in
  Flow_table.remove t.finish flow;
  flushed

let sched t =
  {
    Sched.name = "sfq";
    enqueue = (fun ~now pkt -> enqueue t ~now pkt);
    dequeue = (fun ~now -> dequeue t ~now);
    peek = (fun () -> peek t);
    size = (fun () -> size t);
    backlog = (fun flow -> backlog t flow);
    evict = (fun ~now:_ victim flow -> evict t victim flow);
    close_flow = (fun ~now:_ flow -> close_flow t flow);
  }
