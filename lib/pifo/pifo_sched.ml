open Sfq_util
open Sfq_base
open Sfq_sched

(* The rank store, chosen once at creation. The exact path reads [main]
   directly; the other two carry their own state. *)
type stage =
  | Exact  (* unshaped: one Iflow_heap, [main] *)
  | Shaped  (* [shaper] Iflow_heap feeding the [eligible] Iheap *)
  | Banked of Sp_pifo.t  (* unshaped over SP-PIFO banks *)

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
  stage : stage;
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

let grow_ties t flow =
  t.ties <- Flow_state.cover t.ties flow 0;
  t.tie_ok <- Flow_state.cover t.tie_ok flow false

let tie_of t flow =
  if t.arrival then 0
  else begin
    if flow >= Array.length t.ties then grow_ties t flow;
    if t.tie_ok.(flow) then t.ties.(flow)
    else begin
      let e = Tag.tie_encode (Tag_queue.tie_value t.tie flow) in
      t.ties.(flow) <- e;
      t.tie_ok.(flow) <- true;
      e
    end
  end

let bump t flow d =
  if flow >= Array.length t.counts then t.counts <- Flow_state.cover t.counts flow 0;
  t.counts.(flow) <- t.counts.(flow) + d

let size_unshaped t = Iflow_heap.size t.main
let size_shaped t = Iflow_heap.size t.shaper + Iheap.length t.eligible

let size t =
  match t.stage with
  | Exact -> size_unshaped t
  | Shaped -> size_shaped t
  | Banked b -> Sp_pifo.size b

let is_empty t = size t = 0

let backlog_unshaped t flow = Iflow_heap.backlog t.main flow

let backlog_shaped t flow =
  if flow >= 0 && flow < Array.length t.counts then t.counts.(flow) else 0

let backlog t flow =
  match t.stage with
  | Exact -> backlog_unshaped t flow
  | Shaped -> backlog_shaped t flow
  | Banked b -> Sp_pifo.backlog b flow

let create ?(tie = Tag_queue.Arrival) ?banks prog =
  let arrival = match tie with Tag_queue.Arrival -> true | _ -> false in
  let shaped = prog.Rank_program.shaped in
  let stage =
    match banks with
    | None -> if shaped then Shaped else Exact
    | Some _ when shaped ->
      invalid_arg "Pifo_sched.create: banks need an unshaped program"
    | Some _ when not arrival ->
      invalid_arg "Pifo_sched.create: banks need the Arrival tie"
    | Some n -> Banked (Sp_pifo.create ~banks:n)
  in
  let t =
    {
      prog;
      regs = prog.Rank_program.regs;
      rank = prog.Rank_program.rank;
      on_dequeue = prog.Rank_program.on_dequeue;
      on_idle = prog.Rank_program.on_idle;
      horizon = prog.Rank_program.horizon;
      stage;
      tie;
      arrival;
      main = Iflow_heap.create ();
      shaper = Iflow_heap.create ();
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

(* The banked stage admits exactly like the exact one; only the store
   differs (banks require the Arrival tie, so there is none to encode). *)
let enqueue_banked t b ~now pkt =
  check_flow pkt.Packet.flow;
  let key = clamp_rank (t.rank ~now pkt) in
  let aux = t.regs.Rank_program.aux in
  if key > t.high then t.high <- key;
  if aux > t.high then t.high <- clamp_rank aux;
  Sp_pifo.push b ~key ~aux pkt

let enqueue t ~now pkt =
  match t.stage with
  | Exact -> enqueue_unshaped t ~now pkt
  | Shaped -> enqueue_shaped t ~now pkt
  | Banked b -> enqueue_banked t b ~now pkt

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

(* Banks serve by priority, not by rank, so the served key may sit
   below an earlier one; the program's on_dequeue never moves v back. *)
let dequeue_banked_exn t b =
  let pkt = Sp_pifo.pop_exn b in
  t.on_dequeue ~key:(Sp_pifo.last_key b) ~aux:(Sp_pifo.last_aux b)
    ~empty:(Sp_pifo.is_empty b);
  pkt

let dequeue_banked t b =
  if Sp_pifo.is_empty b then begin
    t.on_idle ();
    None
  end
  else Some (dequeue_banked_exn t b)

let dequeue_exn t =
  match t.stage with
  | Exact -> dequeue_unshaped_exn t
  | Shaped -> (
    match serve_shaped t ~now:t.last_now with
    | Some pkt -> pkt
    | None -> invalid_arg "Pifo_sched.dequeue_exn: empty")
  | Banked b -> dequeue_banked_exn t b

let dequeue t ~now =
  match t.stage with
  | Exact -> dequeue_unshaped t
  | Shaped -> dequeue_shaped t ~now
  | Banked b -> dequeue_banked t b

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

let peek t =
  match t.stage with
  | Exact -> peek_unshaped t
  | Shaped -> peek_shaped t
  | Banked b -> Sp_pifo.peek b

(* Eviction keeps every tag the program assigned: dropped virtual
   service stays charged to the flow (eq. 4, conservative). A flow's
   promoted entries are strictly older than its shaper entries, so
   Oldest looks in the service heap first and Newest in the shaper
   first. *)
let evict_shaped t victim flow =
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

let evict_unshaped t victim flow =
  let popped =
    match (victim : Sched.victim) with
    | Sched.Oldest -> Iflow_heap.evict_front t.main flow
    | Sched.Newest -> Iflow_heap.evict_back t.main flow
  in
  match popped with None -> None | Some p -> Some p.Iflow_heap.value

let evict_banked b victim flow =
  match (victim : Sched.victim) with
  | Sched.Oldest -> Sp_pifo.evict_front b flow
  | Sched.Newest -> Sp_pifo.evict_back b flow

let evict t victim flow =
  match t.stage with
  | Exact -> evict_unshaped t victim flow
  | Shaped -> evict_shaped t victim flow
  | Banked b -> evict_banked b victim flow

let close_flow t ~now flow =
  let flushed =
    match t.stage with
    | Banked b -> Sp_pifo.flush_flow b flow
    | Shaped ->
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
    | Exact ->
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

(* The closure set is chosen once, here, from the stage fixed at
   creation, so the per-packet calls through [Sched.t] never test for
   the other stages. *)
let sched t =
  let name = t.prog.Rank_program.name in
  let close_flow ~now flow = close_flow t ~now flow in
  match t.stage with
  | Exact ->
    {
      Sched.name;
      enqueue = (fun ~now pkt -> enqueue_unshaped t ~now pkt);
      dequeue = (fun ~now:_ -> dequeue_unshaped t);
      peek = (fun () -> peek_unshaped t);
      size = (fun () -> size_unshaped t);
      backlog = (fun flow -> backlog_unshaped t flow);
      evict = (fun ~now:_ victim flow -> evict_unshaped t victim flow);
      close_flow;
    }
  | Shaped ->
    {
      Sched.name;
      enqueue = (fun ~now pkt -> enqueue_shaped t ~now pkt);
      dequeue = (fun ~now -> dequeue_shaped t ~now);
      peek = (fun () -> peek_shaped t);
      size = (fun () -> size_shaped t);
      backlog = (fun flow -> backlog_shaped t flow);
      evict = (fun ~now:_ victim flow -> evict_shaped t victim flow);
      close_flow;
    }
  | Banked b ->
    {
      Sched.name;
      enqueue = (fun ~now pkt -> enqueue_banked t b ~now pkt);
      dequeue = (fun ~now:_ -> dequeue_banked t b);
      peek = (fun () -> Sp_pifo.peek b);
      size = (fun () -> Sp_pifo.size b);
      backlog = (fun flow -> Sp_pifo.backlog b flow);
      evict = (fun ~now:_ victim flow -> evict_banked b victim flow);
      close_flow;
    }

let banks t = match t.stage with Banked b -> Some b | Exact | Shaped -> None
