open Sfq_util
open Sfq_base
open Sfq_sched

type t = {
  prog : Rank_program.t;
  regs : Rank_program.regs;  (* prog.regs, cached to skip a load *)
  (* The per-packet program hooks, cached out of [prog] at creation:
     [t.prog.Rank_program.rank] is two dependent loads per packet,
     [t.rank] is one. *)
  rank : now:float -> Packet.t -> int;
  on_dequeue : key:int -> aux:int -> empty:bool -> unit;
  on_idle : unit -> unit;
  horizon : now:float -> int;
  shaped : bool;
  tie : Tag_queue.tie;
  arrival : bool;  (* tie = Arrival: the encoded tie is always 0 *)
  main : Packet.t Iflow_heap.t;  (* unshaped service stage *)
  shaper : Packet.t Iflow_heap.t;  (* shaped: eligibility stage *)
  eligible : Packet.t Iheap.t;  (* shaped: service stage *)
  mutable counts : int array;  (* shaped per-flow backlog *)
  (* Per-flow encoded tie cache, filled on first use and reset by
     close_flow — a per-activation snapshot, like Flow_state's rate
     cache. *)
  mutable ties : int array;
  mutable tie_ok : bool array;
  mutable high : int;  (* largest clamped rank or aux ever admitted *)
  mutable last_now : float;  (* shaped: clock for now-less peek *)
}

let tie_value tie flow =
  match (tie : Tag_queue.tie) with
  | Arrival -> 0.0
  | Low_rate w -> w flow
  | High_rate w -> -.w flow

let grow_ties t flow =
  let n = Array.length t.ties in
  let cap = Stdlib.max 16 (Stdlib.max (2 * n) (flow + 1)) in
  let ties = Array.make cap 0 in
  Array.blit t.ties 0 ties 0 n;
  t.ties <- ties;
  let ok = Array.make cap false in
  Array.blit t.tie_ok 0 ok 0 n;
  t.tie_ok <- ok

let tie_of t flow =
  if t.arrival then 0
  else begin
    if flow >= Array.length t.ties then grow_ties t flow;
    if t.tie_ok.(flow) then t.ties.(flow)
    else begin
      let e = Tag.tie_encode (tie_value t.tie flow) in
      t.ties.(flow) <- e;
      t.tie_ok.(flow) <- true;
      e
    end
  end

let grow_counts t flow =
  let n = Array.length t.counts in
  let cap = Stdlib.max 16 (Stdlib.max (2 * n) (flow + 1)) in
  let counts = Array.make cap 0 in
  Array.blit t.counts 0 counts 0 n;
  t.counts <- counts

let bump t flow d =
  if flow >= Array.length t.counts then grow_counts t flow;
  t.counts.(flow) <- t.counts.(flow) + d

let size_unshaped t = Iflow_heap.size t.main
let size_shaped t = Iflow_heap.size t.shaper + Iheap.length t.eligible
let size t = if t.shaped then size_shaped t else size_unshaped t
let is_empty t = size t = 0

let backlog_unshaped t flow = Iflow_heap.backlog t.main flow

let backlog_shaped t flow =
  if flow >= 0 && flow < Array.length t.counts then t.counts.(flow) else 0

let backlog t flow =
  if t.shaped then backlog_shaped t flow else backlog_unshaped t flow

let create ?(tie = Tag_queue.Arrival) ?capacity prog =
  let t =
    {
      prog;
      regs = prog.Rank_program.regs;
      rank = prog.Rank_program.rank;
      on_dequeue = prog.Rank_program.on_dequeue;
      on_idle = prog.Rank_program.on_idle;
      horizon = prog.Rank_program.horizon;
      shaped = prog.Rank_program.shaped;
      tie;
      arrival = (match tie with Tag_queue.Arrival -> true | _ -> false);
      main = Iflow_heap.create ?capacity ();
      shaper = Iflow_heap.create ?capacity ();
      eligible = Iheap.create ();
      counts = [||];
      ties = [||];
      tie_ok = [||];
      high = 0;
      last_now = 0.0;
    }
  in
  prog.Rank_program.attach (fun () -> size t);
  t

(* Ranks saturate at the Tag rail and clamp below at 0 — a user rank
   program can never wrap the ordering, only degrade it to (tie,
   arrival) at the rail. *)
let clamp_rank k = if k < 0 then 0 else if k > Tag.max_tag then Tag.max_tag else k

let check_flow flow =
  if flow < 0 then invalid_arg "Pifo_sched.enqueue: flow id must be >= 0"

(* [high] watches the aux output as well as the rank: SFQ's finish tag
   (its aux) reaches the rail before its start tag (its rank) does. *)
let enqueue_unshaped t ~now pkt =
  let flow = pkt.Packet.flow in
  check_flow flow;
  let tie = if t.arrival then 0 else tie_of t flow in
  let key = clamp_rank (t.rank ~now pkt) in
  let aux = t.regs.Rank_program.aux in
  if key > t.high then t.high <- key;
  if aux > t.high then t.high <- clamp_rank aux;
  Iflow_heap.push t.main ~flow ~key ~aux ~tie pkt

let enqueue_shaped t ~now pkt =
  let flow = pkt.Packet.flow in
  check_flow flow;
  let tie = if t.arrival then 0 else tie_of t flow in
  let key = clamp_rank (t.rank ~now pkt) in
  if key > t.high then t.high <- key;
  if now > t.last_now then t.last_now <- now;
  let ekey = clamp_rank t.regs.Rank_program.eligible in
  Iflow_heap.push t.shaper ~flow ~key:ekey ~aux:key ~tie pkt;
  bump t flow 1

let enqueue t ~now pkt =
  if t.shaped then enqueue_shaped t ~now pkt else enqueue_unshaped t ~now pkt

(* Shaped stage transfer: entries whose eligibility rank the horizon
   has passed move to the service heap keyed by their service rank
   (stored as the shaper's aux), carrying their original push uid so
   equal (rank, tie) entries still serve in arrival order. The horizon
   is consulted unconditionally — for GPS-clocked programs the call
   itself advances the fluid simulation, exactly as the float WF²Q
   promotes on every dequeue and peek. *)
let promote t ~now =
  let h = t.horizon ~now in
  let rec go () =
    match Iflow_heap.peek t.shaper with
    | Some e when e.Iflow_heap.key <= h ->
      let pkt = Iflow_heap.pop_exn t.shaper in
      Iheap.add t.eligible
        ~key:(Iflow_heap.last_aux t.shaper)
        ~tie:(tie_of t (Iflow_heap.last_flow t.shaper))
        ~uid:(Iflow_heap.last_uid t.shaper)
        pkt;
      go ()
    | Some _ | None -> ()
  in
  go ()

let serve_shaped t ~now =
  promote t ~now;
  if Iheap.length t.eligible > 0 then begin
    let key = Iheap.min_key_exn t.eligible in
    let pkt = Iheap.min_elt_exn t.eligible in
    Iheap.remove_root t.eligible;
    bump t pkt.Packet.flow (-1);
    t.on_dequeue ~key ~aux:0
      ~empty:(Iheap.length t.eligible = 0 && Iflow_heap.is_empty t.shaper);
    Some pkt
  end
  else if not (Iflow_heap.is_empty t.shaper) then begin
    (* Work conservation: nothing eligible, serve the earliest
       eligibility rank rather than idling. *)
    let pkt = Iflow_heap.pop_exn t.shaper in
    bump t pkt.Packet.flow (-1);
    t.on_dequeue
      ~key:(Iflow_heap.last_aux t.shaper)
      ~aux:0
      ~empty:(Iflow_heap.is_empty t.shaper);
    Some pkt
  end
  else begin
    t.on_idle ();
    None
  end

let dequeue_shaped t ~now =
  if now > t.last_now then t.last_now <- now;
  serve_shaped t ~now

(* Unshaped non-allocating hot path; pair with [is_empty]. *)
let dequeue_unshaped_exn t =
  let pkt = Iflow_heap.pop_exn t.main in
  t.on_dequeue
    ~key:(Iflow_heap.last_key t.main)
    ~aux:(Iflow_heap.last_aux t.main)
    ~empty:(Iflow_heap.is_empty t.main);
  pkt

let dequeue_unshaped t =
  if Iflow_heap.is_empty t.main then begin
    t.on_idle ();
    None
  end
  else Some (dequeue_unshaped_exn t)

let dequeue_exn t =
  if t.shaped then
    match serve_shaped t ~now:t.last_now with
    | Some pkt -> pkt
    | None -> invalid_arg "Pifo_sched.dequeue_exn: empty"
  else dequeue_unshaped_exn t

let dequeue t ~now =
  if t.shaped then dequeue_shaped t ~now else dequeue_unshaped t

let peek_unshaped t =
  match Iflow_heap.peek t.main with
  | None -> None
  | Some p -> Some p.Iflow_heap.value

let peek_shaped t =
  promote t ~now:t.last_now;
  match Iheap.min_elt t.eligible with
  | Some pkt -> Some pkt
  | None -> (
    match Iflow_heap.peek t.shaper with
    | Some e -> Some e.Iflow_heap.value
    | None -> None)

let peek t = if t.shaped then peek_shaped t else peek_unshaped t

(* Eviction keeps every tag the program assigned: dropped virtual
   service stays charged to the flow (eq. 4, conservative). A flow's
   promoted entries are strictly older than its shaper entries, so
   Oldest looks in the service heap first and Newest in the shaper
   first. *)
let evict t victim flow =
  if t.shaped then begin
    let pred p = p.Packet.flow = flow in
    let found =
      match (victim : Sched.victim) with
      | Sched.Oldest -> (
        match Iheap.remove_matching t.eligible ~pred with
        | Some (_, p) -> Some p
        | None -> (
          match Iflow_heap.evict_front t.shaper flow with
          | Some e -> Some e.Iflow_heap.value
          | None -> None))
      | Sched.Newest -> (
        match Iflow_heap.evict_back t.shaper flow with
        | Some e -> Some e.Iflow_heap.value
        | None -> (
          match Iheap.remove_matching ~newest:true t.eligible ~pred with
          | Some (_, p) -> Some p
          | None -> None))
    in
    (match found with Some _ -> bump t flow (-1) | None -> ());
    found
  end
  else
    let popped =
      match (victim : Sched.victim) with
      | Sched.Oldest -> Iflow_heap.evict_front t.main flow
      | Sched.Newest -> Iflow_heap.evict_back t.main flow
    in
    match popped with None -> None | Some p -> Some p.Iflow_heap.value

let close_flow t ~now flow =
  let flushed =
    if t.shaped then begin
      let pred p = p.Packet.flow = flow in
      let rec drain acc =
        match Iheap.remove_matching t.eligible ~pred with
        | Some (_, p) -> drain (p :: acc)
        | None -> List.rev acc
      in
      (* remove_matching takes ascending uid, so promoted entries come
         out oldest first and precede everything still in the shaper *)
      let released = drain [] in
      let waiting =
        List.map (fun e -> e.Iflow_heap.value) (Iflow_heap.flush_flow t.shaper flow)
      in
      if flow >= 0 && flow < Array.length t.counts then t.counts.(flow) <- 0;
      released @ waiting
    end
    else
      List.map (fun p -> p.Iflow_heap.value) (Iflow_heap.flush_flow t.main flow)
  in
  if flow >= 0 && flow < Array.length t.ties then begin
    t.ties.(flow) <- 0;
    t.tie_ok.(flow) <- false
  end;
  t.prog.Rank_program.on_close ~now flow;
  flushed

let vtime t = t.prog.Rank_program.vtime ()
let high_tag t = t.high
let saturated t = Tag.is_saturated t.high
let program t = t.prog

(* The closure set is chosen once, here, from the program's [shaped]
   flag, so the per-packet calls through [Sched.t] skip the shaped
   branches entirely. *)
let sched t =
  let evict ~now:_ victim flow = evict t victim flow in
  let close_flow ~now flow = close_flow t ~now flow in
  if t.shaped then
    {
      Sched.name = t.prog.Rank_program.name;
      enqueue = (fun ~now pkt -> enqueue_shaped t ~now pkt);
      dequeue = (fun ~now -> dequeue_shaped t ~now);
      peek = (fun () -> peek_shaped t);
      size = (fun () -> size_shaped t);
      backlog = (fun flow -> backlog_shaped t flow);
      evict;
      close_flow;
    }
  else
    {
      Sched.name = t.prog.Rank_program.name;
      enqueue = (fun ~now pkt -> enqueue_unshaped t ~now pkt);
      dequeue = (fun ~now:_ -> dequeue_unshaped t);
      peek = (fun () -> peek_unshaped t);
      size = (fun () -> size_unshaped t);
      backlog = (fun flow -> backlog_unshaped t flow);
      evict;
      close_flow;
    }
