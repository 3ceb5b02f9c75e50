open Sfq_util
open Sfq_base
open Sfq_sched

(* The float-keyed store of a [Float] program, with its hooks cached
   out of the program record. *)
type fstore = {
  fregs : Rank_program.fregs;
  frank : now:float -> Packet.t -> unit;
  fon_dequeue : empty:bool -> unit;
  set_horizon : now:float -> unit;
  fmain : Packet.t Flow_heap.t;  (* unshaped: service stage; shaped: shaper *)
  feligible : Packet.t Fheap.t;  (* shaped: service stage *)
}

(* The rank store, chosen once at creation from the program's key
   domain, [shaped] and [~banks]. The int exact path reads [main]
   directly; the others carry their own state. *)
type stage =
  | Exact  (* unshaped: one Iflow_heap, [main] *)
  | Shaped  (* [shaper] Iflow_heap feeding the [eligible] Iheap *)
  | Banked of Sp_pifo.t  (* unshaped over SP-PIFO banks *)
  | Float_exact of fstore  (* unshaped float program: [fmain] only *)
  | Float_shaped of fstore  (* [fmain] Flow_heap feeding [feligible] *)

type t = {
  prog : Rank_program.t;
  regs : Rank_program.regs;  (* the Int program's regs, cached to skip a load *)
  (* The per-packet hooks of an Int program, cached out of [prog] at
     creation: one load per packet instead of three. Float programs
     keep theirs in their [fstore]; these are then inert. *)
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

(* The float tie is evaluated on every push and promotion, as the
   float schedulers always did; [0.] under [Arrival]. *)
let ftie t flow = if t.arrival then 0.0 else Tag_queue.tie_value t.tie flow

let size_unshaped t = Iflow_heap.size t.main
let size_shaped t = Iflow_heap.size t.shaper + Iheap.length t.eligible
let size_fshaped f = Flow_heap.size f.fmain + Fheap.length f.feligible

let size t =
  match t.stage with
  | Exact -> size_unshaped t
  | Shaped -> size_shaped t
  | Banked b -> Sp_pifo.size b
  | Float_exact f -> Flow_heap.size f.fmain
  | Float_shaped f -> size_fshaped f

let is_empty t = size t = 0

let backlog_unshaped t flow = Iflow_heap.backlog t.main flow

let backlog_shaped t flow =
  if flow >= 0 && flow < Array.length t.counts then t.counts.(flow) else 0

let backlog t flow =
  match t.stage with
  | Exact -> backlog_unshaped t flow
  | Shaped | Float_shaped _ -> backlog_shaped t flow
  | Banked b -> Sp_pifo.backlog b flow
  | Float_exact f -> Flow_heap.backlog f.fmain flow

let create ?(tie = Tag_queue.Arrival) ?banks prog =
  let arrival = match tie with Tag_queue.Arrival -> true | _ -> false in
  let shaped = prog.Rank_program.shaped in
  let stage =
    match (prog.Rank_program.keys, banks) with
    | Rank_program.Float _, Some _ ->
      invalid_arg "Pifo_sched.create: banks need an int program"
    | Rank_program.Float k, None ->
      let f =
        {
          fregs = k.fregs;
          frank = k.rank;
          fon_dequeue = k.on_dequeue;
          set_horizon = k.horizon;
          fmain = Flow_heap.create ();
          feligible = Fheap.create ();
        }
      in
      if shaped then Float_shaped f else Float_exact f
    | Rank_program.Int _, None -> if shaped then Shaped else Exact
    | Rank_program.Int _, Some _ when shaped ->
      invalid_arg "Pifo_sched.create: banks need an unshaped program"
    | Rank_program.Int _, Some _ when not arrival ->
      invalid_arg "Pifo_sched.create: banks need the Arrival tie"
    | Rank_program.Int _, Some n -> Banked (Sp_pifo.create ~banks:n)
  in
  let regs, rank, on_dequeue, horizon =
    match prog.Rank_program.keys with
    | Rank_program.Int k -> (k.regs, k.rank, k.on_dequeue, k.horizon)
    | Rank_program.Float _ ->
      (Rank_program.regs (), (fun ~now:_ _ -> 0), Rank_program.no_dequeue,
       Rank_program.no_horizon)
  in
  let t =
    {
      prog;
      regs;
      rank;
      on_dequeue;
      on_idle = prog.Rank_program.on_idle;
      horizon;
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

(* Float stages: the program leaves its outputs in [fregs]; nothing
   is clamped (there is no rail). The shaper keys by eligibility rank
   and carries the service rank as its aux, as the int shaper does. *)
let enqueue_fexact t f ~now pkt =
  let flow = pkt.Packet.flow in
  check_flow flow;
  f.frank ~now pkt;
  Flow_heap.push f.fmain ~flow ~key:f.fregs.Rank_program.fkey
    ~aux:f.fregs.Rank_program.faux ~tie:(ftie t flow) pkt

let enqueue_fshaped t f ~now pkt =
  let flow = pkt.Packet.flow in
  check_flow flow;
  if now > t.last_now then t.last_now <- now;
  f.frank ~now pkt;
  Flow_heap.push f.fmain ~flow ~key:f.fregs.Rank_program.feligible
    ~aux:f.fregs.Rank_program.fkey ~tie:(ftie t flow) pkt;
  bump t flow 1

let enqueue t ~now pkt =
  match t.stage with
  | Exact -> enqueue_unshaped t ~now pkt
  | Shaped -> enqueue_shaped t ~now pkt
  | Banked b -> enqueue_banked t b ~now pkt
  | Float_exact f -> enqueue_fexact t f ~now pkt
  | Float_shaped f -> enqueue_fshaped t f ~now pkt

(* Shaped stage transfer: entries whose eligibility rank the horizon
   has passed move to the service heap keyed by their service rank
   (stored as the shaper's aux), carrying their original push uid so
   equal (rank, tie) entries still serve in arrival order. The horizon
   is consulted unconditionally — for GPS-clocked programs the call
   itself advances the fluid simulation, on every dequeue and peek. *)
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

(* The served entry's rank and aux go back through [fregs]. *)
let dequeue_fexact_exn f =
  match Flow_heap.pop f.fmain with
  | Some e ->
    f.fregs.Rank_program.fkey <- e.Flow_heap.key;
    f.fregs.Rank_program.faux <- e.Flow_heap.aux;
    f.fon_dequeue ~empty:(Flow_heap.is_empty f.fmain);
    e.Flow_heap.value
  | None -> invalid_arg "Pifo_sched.dequeue_exn: empty"

let dequeue_fexact t f =
  if Flow_heap.is_empty f.fmain then begin
    t.on_idle ();
    None
  end
  else Some (dequeue_fexact_exn f)

let promote_float t f ~now =
  f.set_horizon ~now;
  let h = f.fregs.Rank_program.fhorizon in
  let rec go () =
    match Flow_heap.peek f.fmain with
    | Some e when e.Flow_heap.key <= h ->
      let e = Option.get (Flow_heap.pop f.fmain) in
      Fheap.add f.feligible ~key:e.Flow_heap.aux ~tie:(ftie t e.Flow_heap.flow)
        ~uid:e.Flow_heap.uid e.Flow_heap.value;
      go ()
    | Some _ | None -> ()
  in
  go ()

let serve_fshaped t f ~now =
  promote_float t f ~now;
  let served key pkt ~empty =
    bump t pkt.Packet.flow (-1);
    f.fregs.Rank_program.fkey <- key;
    f.fregs.Rank_program.faux <- 0.0;
    f.fon_dequeue ~empty;
    Some pkt
  in
  match Fheap.pop f.feligible with
  | Some (key, pkt) ->
    served key pkt ~empty:(Fheap.is_empty f.feligible && Flow_heap.is_empty f.fmain)
  | None -> (
    (* work conservation, as in the int shaper *)
    match Flow_heap.pop f.fmain with
    | Some e -> served e.Flow_heap.aux e.Flow_heap.value ~empty:(Flow_heap.is_empty f.fmain)
    | None ->
      t.on_idle ();
      None)

let dequeue_fshaped t f ~now =
  if now > t.last_now then t.last_now <- now;
  serve_fshaped t f ~now

let dequeue t ~now =
  match t.stage with
  | Exact -> dequeue_unshaped t
  | Shaped -> dequeue_shaped t ~now
  | Banked b -> dequeue_banked t b
  | Float_exact f -> dequeue_fexact t f
  | Float_shaped f -> dequeue_fshaped t f ~now

let dequeue_exn t =
  match t.stage with
  | Exact -> dequeue_unshaped_exn t
  | Banked b -> dequeue_banked_exn t b
  | Float_exact f -> dequeue_fexact_exn f
  | Shaped | Float_shaped _ -> (
    match dequeue t ~now:t.last_now with
    | Some pkt -> pkt
    | None -> invalid_arg "Pifo_sched.dequeue_exn: empty")

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

let peek_fexact f =
  match Flow_heap.peek f.fmain with
  | None -> None
  | Some e -> Some e.Flow_heap.value

let peek_fshaped t f =
  promote_float t f ~now:t.last_now;
  match Fheap.min_elt f.feligible with
  | Some pkt -> Some pkt
  | None -> peek_fexact f

let peek t =
  match t.stage with
  | Exact -> peek_unshaped t
  | Shaped -> peek_shaped t
  | Banked b -> Sp_pifo.peek b
  | Float_exact f -> peek_fexact f
  | Float_shaped f -> peek_fshaped t f

(* A shaped store's two stages, as the lifecycle calls see them for
   one flow: [promoted ~newest] takes the flow's oldest (newest) entry
   out of the service stage, [evict_waiting]/[flush_waiting] act on
   the shaper. *)
type stages = {
  promoted : newest:bool -> Packet.t option;
  evict_waiting : Sched.victim -> Packet.t option;
  flush_waiting : unit -> Packet.t list;
}

let int_stages t flow =
  let pred p = p.Packet.flow = flow in
  {
    promoted = (fun ~newest -> Option.map snd (Iheap.remove_matching ~newest t.eligible ~pred));
    evict_waiting = (fun victim -> Iflow_heap.evict t.shaper victim flow);
    flush_waiting =
      (fun () -> List.map (fun e -> e.Iflow_heap.value) (Iflow_heap.flush_flow t.shaper flow));
  }

let float_stages f flow =
  let pred p = p.Packet.flow = flow in
  {
    promoted = (fun ~newest -> Option.map snd (Fheap.remove_matching ~newest f.feligible ~pred));
    evict_waiting = (fun victim -> Flow_heap.evict f.fmain victim flow);
    flush_waiting =
      (fun () -> List.map (fun e -> e.Flow_heap.value) (Flow_heap.flush_flow f.fmain flow));
  }

(* Eviction keeps every tag the program assigned: dropped virtual
   service stays charged to the flow (eq. 4, conservative). A flow's
   promoted entries are strictly older than its shaper entries, so
   Oldest looks in the service stage first and Newest in the shaper
   first. *)
let evict_staged t s victim flow =
  let found =
    match (victim : Sched.victim) with
    | Sched.Oldest -> (
      match s.promoted ~newest:false with None -> s.evict_waiting victim | p -> p)
    | Sched.Newest -> (
      match s.evict_waiting victim with None -> s.promoted ~newest:true | p -> p)
  in
  (match found with Some _ -> bump t flow (-1) | None -> ());
  found

(* Promoted entries come out oldest first (ascending uid) and precede
   everything still in the shaper. *)
let close_staged t s flow =
  let rec drain acc =
    match s.promoted ~newest:false with Some p -> drain (p :: acc) | None -> List.rev acc
  in
  let released = drain [] in
  if flow >= 0 && flow < Array.length t.counts then t.counts.(flow) <- 0;
  released @ s.flush_waiting ()

let evict_banked b victim flow =
  match (victim : Sched.victim) with
  | Sched.Oldest -> Sp_pifo.evict_front b flow
  | Sched.Newest -> Sp_pifo.evict_back b flow

let evict t victim flow =
  match t.stage with
  | Exact -> Iflow_heap.evict t.main victim flow
  | Shaped -> evict_staged t (int_stages t flow) victim flow
  | Banked b -> evict_banked b victim flow
  | Float_exact f -> Flow_heap.evict f.fmain victim flow
  | Float_shaped f -> evict_staged t (float_stages f flow) victim flow

let close_flow t ~now flow =
  let flushed =
    match t.stage with
    | Banked b -> Sp_pifo.flush_flow b flow
    | Shaped -> close_staged t (int_stages t flow) flow
    | Exact ->
      List.map (fun p -> p.Iflow_heap.value) (Iflow_heap.flush_flow t.main flow)
    | Float_exact f ->
      List.map (fun e -> e.Flow_heap.value) (Flow_heap.flush_flow f.fmain flow)
    | Float_shaped f -> close_staged t (float_stages f flow) flow
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
      evict = (fun ~now:_ victim flow -> Iflow_heap.evict t.main victim flow);
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
      evict = (fun ~now:_ victim flow -> evict_staged t (int_stages t flow) victim flow);
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
  | Float_exact f ->
    {
      Sched.name;
      enqueue = (fun ~now pkt -> enqueue_fexact t f ~now pkt);
      dequeue = (fun ~now:_ -> dequeue_fexact t f);
      peek = (fun () -> peek_fexact f);
      size = (fun () -> Flow_heap.size f.fmain);
      backlog = (fun flow -> Flow_heap.backlog f.fmain flow);
      evict = (fun ~now:_ victim flow -> Flow_heap.evict f.fmain victim flow);
      close_flow;
    }
  | Float_shaped f ->
    {
      Sched.name;
      enqueue = (fun ~now pkt -> enqueue_fshaped t f ~now pkt);
      dequeue = (fun ~now -> dequeue_fshaped t f ~now);
      peek = (fun () -> peek_fshaped t f);
      size = (fun () -> size_fshaped f);
      backlog = (fun flow -> backlog_shaped t flow);
      evict = (fun ~now:_ victim flow -> evict_staged t (float_stages f flow) victim flow);
      close_flow;
    }

let banks t = match t.stage with Banked b -> Some b | _ -> None
