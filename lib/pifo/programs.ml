open Sfq_base
open Sfq_sched
open Rank_program

(* Program records with the common hooks defaulted. *)
let program ~name ?(shaped = false) ?(on_idle = no_idle) ?(attach = no_attach)
    ?(vtime = no_vtime) ~on_close keys =
  { name; shaped; keys; on_idle; attach; on_close; vtime }

let int_keys ?(on_dequeue = no_dequeue) regs rank =
  Int { regs; rank; on_dequeue; horizon = no_horizon }

let float_keys ?(on_dequeue = no_fdequeue) ?(horizon = no_fhorizon) fregs rank =
  Float { fregs; rank; on_dequeue; horizon }

(* ------------------------------------------------------------------ *)
(* Int (fixed-point) programs                                          *)

let sfq ?(busy_rule = Sfq_core.Sfq.Idle_poll) ?frac_bits weights =
  let fs = Flow_state.create ?frac_bits weights in
  let v = ref 0 and mfs = ref 0 in
  let on_empty = busy_rule = Sfq_core.Sfq.On_empty in
  let regs = Rank_program.regs () in
  program ~name:"pifo-sfq"
    ~on_idle:(fun () -> if !mfs > !v then v := !mfs)
    ~on_close:(fun ~now:_ flow -> Flow_state.forget fs flow)
    ~vtime:(fun () -> Tag.decode (Flow_state.codec fs) !v)
    (int_keys regs
       ~on_dequeue:(fun ~key ~aux ~empty ->
         if key > !v then v := key;
         if aux > !mfs then mfs := aux;
         (* The deliberately wrong ablation variant, as in the float Sfq. *)
         if on_empty && empty then v := !mfs)
       (fun ~now:_ pkt ->
         let stag = Flow_state.advance fs ~floor:!v pkt in
         regs.aux <- Flow_state.last fs;
         stag))

let scfq ?frac_bits weights =
  let fs = Flow_state.create ?frac_bits weights in
  let v = ref 0 in
  let regs = Rank_program.regs () in
  program ~name:"pifo-scfq"
    ~on_idle:(fun () ->
      (* Busy period over: restart the clock and the per-flow tags. *)
      v := 0;
      Flow_state.clear fs)
    ~on_close:(fun ~now:_ flow -> Flow_state.forget fs flow)
    ~vtime:(fun () -> Tag.decode (Flow_state.codec fs) !v)
    (int_keys regs
       ~on_dequeue:(fun ~key ~aux:_ ~empty:_ -> v := key)
       (fun ~now:_ pkt ->
         ignore (Flow_state.advance_reserved fs ~floor:!v pkt : int);
         let ftag = Flow_state.last fs in
         regs.aux <- ftag;
         (* SCFQ serves in finish-tag order: the finish tag is the rank. *)
         ftag))

let virtual_clock ?frac_bits weights =
  let fs = Flow_state.create ?frac_bits weights in
  let regs = Rank_program.regs () in
  program ~name:"pifo-vc"
    ~on_close:(fun ~now:_ flow -> Flow_state.forget fs flow)
    (int_keys regs (fun ~now pkt ->
         let eat = Flow_state.advance_eat fs ~now pkt in
         regs.aux <- eat;
         Flow_state.last fs))

(* The declared specs, validated, as a lookup that raises on an
   undeclared flow (Delay EDD admits declared flows only). *)
let edd_specs specs =
  List.iter
    (fun (flow, { Delay_edd.rate; deadline; max_len }) ->
      if rate <= 0.0 || deadline <= 0.0 || max_len <= 0 then
        invalid_arg (Printf.sprintf "Delay_edd: invalid spec for flow %d" flow))
    specs;
  let table = Hashtbl.create 16 in
  List.iter (fun (f, s) -> Hashtbl.replace table f s) specs;
  fun f ->
    match Hashtbl.find_opt table f with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "Delay_edd: undeclared flow %d" f)

let delay_edd ?frac_bits specs =
  let spec = edd_specs specs in
  let fs = Flow_state.create ?frac_bits (Weights.of_fun (fun f -> (spec f).Delay_edd.rate)) in
  let codec = Flow_state.codec fs in
  let dl = Hashtbl.create 16 in
  List.iter
    (fun (f, s) -> Hashtbl.replace dl f (Tag.encode codec s.Delay_edd.deadline))
    specs;
  let regs = Rank_program.regs () in
  program ~name:"pifo-edd"
    (* the spec stays (configuration, not state); the EAT floor resets *)
    ~on_close:(fun ~now:_ flow -> Flow_state.forget fs flow)
    (int_keys regs (fun ~now pkt ->
         (* activation happens first inside advance_eat, so an
            undeclared flow raises before any state moves *)
         let eat = Flow_state.advance_eat fs ~now pkt in
         regs.aux <- eat;
         Tag.sat_add eat (Hashtbl.find dl pkt.Packet.flow)))

(* ------------------------------------------------------------------ *)
(* Float-tag programs                                                  *)

(* A flat float record: its writes do not box, unlike a [float ref]. *)
type clock = { mutable v : float }

let scfq_float weights =
  let finish = Flow_table.create ~default:(fun _ -> 0.0) in
  let c = { v = 0.0 } in
  let fregs = Rank_program.fregs () in
  program ~name:"scfq"
    ~on_idle:(fun () ->
      (* The server found no work after a completion: busy period
         over. Restart the clock and the per-flow tags. *)
      c.v <- 0.0;
      Flow_table.clear finish)
    (* a recycled id restarts from F = 0, i.e. start tag max(v, 0) = v *)
    ~on_close:(fun ~now:_ flow -> Flow_table.remove finish flow)
    ~vtime:(fun () -> c.v)
    (float_keys fregs
       (* self-clocking: v is the finish tag of the packet in service *)
       ~on_dequeue:(fun ~empty:_ -> c.v <- fregs.fkey)
       (fun ~now:_ pkt ->
         let flow = pkt.Packet.flow in
         let rate = Weights.get weights flow in
         let start_tag = Float.max c.v (Flow_table.find finish flow) in
         let finish_tag = start_tag +. (float_of_int pkt.Packet.len /. rate) in
         Flow_table.set finish flow finish_tag;
         fregs.fkey <- finish_tag))

(* EAT-stamped ranks (eq. 37). Closing a flow forgets its EAT floor,
   which re-admits it at real time instead of its stale reserved-rate
   schedule. *)
let virtual_clock_float weights =
  let eat = Eat.create () in
  let fregs = Rank_program.fregs () in
  program ~name:"virtual-clock"
    ~on_close:(fun ~now:_ flow -> Eat.reset_flow eat flow)
    (float_keys fregs (fun ~now pkt ->
         let flow = pkt.Packet.flow and len = pkt.Packet.len in
         let rate =
           match pkt.Packet.rate with Some r -> r | None -> Weights.get weights flow
         in
         let e = Eat.on_arrival eat ~now ~flow ~len ~rate in
         fregs.fkey <- e +. (float_of_int len /. rate)))

let delay_edd_float specs =
  let spec = edd_specs specs in
  let eat = Eat.create () in
  let fregs = Rank_program.fregs () in
  program ~name:"delay-edd"
    (* the spec stays (configuration, not state) *)
    ~on_close:(fun ~now:_ flow -> Eat.reset_flow eat flow)
    (float_keys fregs (fun ~now pkt ->
         let flow = pkt.Packet.flow and len = pkt.Packet.len in
         let { Delay_edd.rate; deadline; _ } = spec flow in
         let rate = match pkt.Packet.rate with Some r -> r | None -> rate in
         let e = Eat.on_arrival eat ~now ~flow ~len ~rate in
         fregs.fkey <- e +. deadline))

let lstf_float ?(residual = fun _ -> 0.0) ~deadline () =
  (* Monotone per-flow rank floor: deadlines are caller data with no
     ordering promise, and the float store needs non-decreasing ranks
     within a flow. *)
  let floor = Flow_table.create ~default:(fun _ -> 0.0) in
  let fregs = Rank_program.fregs () in
  program ~name:"lstf"
    (* evict needs no hook (the floor stays — tags never roll back);
       closing forgets it so a reopened flow re-enters on raw
       deadlines *)
    ~on_close:(fun ~now:_ flow -> Flow_table.remove floor flow)
    (float_keys fregs (fun ~now:_ pkt ->
         let r = deadline pkt -. residual pkt in
         let r =
           match Flow_table.find_opt floor pkt.Packet.flow with
           | Some f when r < f -> f
           | _ -> r
         in
         Flow_table.set floor pkt.Packet.flow r;
         fregs.fkey <- r))

(* The GPS fluid clock, guarded by the runtime's real occupancy (the
   size thunk [attach] delivers). The fluid system is not told about
   evictions; closing forgets the flow fluid-side. *)
let gps_program ~name ~shaped ~capacity weights keys =
  let size = ref (fun () -> 0) in
  let gps = Gps.create ~capacity ~real_system_empty:(fun () -> !size () = 0) weights in
  program ~name ~shaped
    ~attach:(fun f -> size := f)
    ~on_close:(fun ~now flow -> Gps.forget_flow gps ~now flow)
    (keys gps (Rank_program.fregs ()))

let fqs_float ~capacity weights =
  gps_program ~name:"fqs" ~shaped:false ~capacity weights (fun gps fregs ->
      float_keys fregs (fun ~now pkt ->
          let stag, _ftag = Gps.on_arrival gps ~now pkt in
          fregs.fkey <- stag))

let wf2q_float ~capacity weights =
  gps_program ~name:"wf2q" ~shaped:true ~capacity weights (fun gps fregs ->
      float_keys fregs
        (* eligible once the fluid system has started the packet *)
        ~horizon:(fun ~now -> fregs.fhorizon <- Gps.vtime gps ~now +. 1e-12)
        (fun ~now pkt ->
          let stag, ftag = Gps.on_arrival gps ~now pkt in
          fregs.feligible <- stag;
          fregs.fkey <- ftag))

(* ------------------------------------------------------------------ *)
(* Quantised float programs                                            *)

(* A float program on the int store: every value crossing the
   boundary goes through the codec, so the rank logic is written once.
   Tag.encode is monotone, so a float floor clamp (LSTF) encodes to the
   same int floor clamp. *)
let quantise ?frac_bits ~name (p : Rank_program.t) =
  match p.keys with
  | Int _ -> { p with name }
  | Float k ->
    let codec = Tag.make ?frac_bits () in
    let fr = k.fregs in
    let regs = Rank_program.regs () in
    let rank ~now pkt =
      k.rank ~now pkt;
      regs.aux <- Tag.encode codec fr.faux;
      regs.eligible <- Tag.encode codec fr.feligible;
      Tag.encode codec fr.fkey
    in
    let on_dequeue ~key ~aux ~empty =
      fr.fkey <- Tag.decode codec key;
      fr.faux <- Tag.decode codec aux;
      k.on_dequeue ~empty
    in
    let horizon ~now =
      k.horizon ~now;
      Tag.encode codec fr.fhorizon
    in
    { p with name; keys = Int { regs; rank; on_dequeue; horizon } }

let lstf ?frac_bits ?residual ~deadline () =
  quantise ?frac_bits ~name:"pifo-lstf" (lstf_float ?residual ~deadline ())

let fqs ~capacity ?frac_bits weights =
  quantise ?frac_bits ~name:"pifo-fqs" (fqs_float ~capacity weights)

let wf2q ~capacity ?frac_bits weights =
  quantise ?frac_bits ~name:"pifo-wf2q" (wf2q_float ~capacity weights)
