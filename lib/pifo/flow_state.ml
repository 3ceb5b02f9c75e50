open Sfq_base

type t = {
  weights : Weights.t;
  codec : Tag.t;
  scale : float;  (* Tag.scale codec, cached for the override branch *)
  mutable tag : int array;
  mutable sor : float array;  (* scale/rate, 0.0 = unseen since create/forget *)
  mutable last : int;  (* stored tag of the latest advance_* call *)
}

let create ?frac_bits weights =
  let codec = Tag.make ?frac_bits () in
  { weights; codec; scale = Tag.scale codec; tag = [||]; sor = [||]; last = 0 }

let codec t = t.codec

let cover a flow fill =
  let n = Array.length a in
  let b = Array.make (Stdlib.max 16 (Stdlib.max (2 * n) (flow + 1))) fill in
  Array.blit a 0 b 0 n;
  b

let grow t flow =
  t.tag <- cover t.tag flow 0;
  t.sor <- cover t.sor flow 0.0

(* Cold path: first packet of a flow activation. Reads the weight
   function (a boxed-float closure call), never on the steady path. *)
let activate t flow =
  t.sor.(flow) <- Tag.scale_over t.codec ~rate:(Weights.get t.weights flow)

(* Unit-returning on purpose: callers re-read [t.sor.(flow)] locally.
   A float-returning helper would box its result on every call
   (ocamlopt only unboxes floats within a body), costing 2 minor words
   per enqueue — the alloc gate in test_pifo_equiv watches this. *)
let ensure t flow =
  if flow >= Array.length t.tag then grow t flow;
  if t.sor.(flow) <= 0.0 then activate t flow

(* The delta multiply+round is written out inline in both branches, so
   no float crosses a function boundary on the steady path. *)
let delta t pkt =
  ensure t pkt.Packet.flow;
  let sor = t.sor.(pkt.Packet.flow) in
  match pkt.Packet.rate with
  | None ->
    let x = Float.round (float_of_int pkt.Packet.len *. sor) in
    if x >= Tag.max_tag_f then Tag.max_tag
    else
      let i = int_of_float x in
      if i < 1 then 1 else i
  | Some r ->
    let x = Float.round (float_of_int pkt.Packet.len *. (t.scale /. r)) in
    if x >= Tag.max_tag_f then Tag.max_tag
    else
      let i = int_of_float x in
      if i < 1 then 1 else i

(* Fused per-packet updates for the common rank-program shapes. Each
   does the whole grow/activate/delta/read/max/add/store sequence in
   one body behind a single module-boundary call — the separate
   delta/get/set entry points above cost three calls and three bounds
   checks per packet, which is most of the rank-program dispatch
   premium. The stored tag lands in [t.last] so the
   caller can publish it (e.g. into [regs.aux]) without a tuple. *)

let advance t ~floor pkt =
  let flow = pkt.Packet.flow in
  if flow >= Array.length t.tag then grow t flow;
  if t.sor.(flow) <= 0.0 then activate t flow;
  let d =
    match pkt.Packet.rate with
    | None ->
      let x = Float.round (float_of_int pkt.Packet.len *. t.sor.(flow)) in
      if x >= Tag.max_tag_f then Tag.max_tag
      else
        let i = int_of_float x in
        if i < 1 then 1 else i
    | Some r ->
      let x = Float.round (float_of_int pkt.Packet.len *. (t.scale /. r)) in
      if x >= Tag.max_tag_f then Tag.max_tag
      else
        let i = int_of_float x in
        if i < 1 then 1 else i
  in
  let fprev = t.tag.(flow) in
  let stag = if floor > fprev then floor else fprev in
  let ftag = Tag.sat_add stag d in
  t.tag.(flow) <- ftag;
  t.last <- ftag;
  stag

let advance_reserved t ~floor pkt =
  let flow = pkt.Packet.flow in
  if flow >= Array.length t.tag then grow t flow;
  if t.sor.(flow) <= 0.0 then activate t flow;
  let d =
    let x = Float.round (float_of_int pkt.Packet.len *. t.sor.(flow)) in
    if x >= Tag.max_tag_f then Tag.max_tag
    else
      let i = int_of_float x in
      if i < 1 then 1 else i
  in
  let fprev = t.tag.(flow) in
  let stag = if floor > fprev then floor else fprev in
  let ftag = Tag.sat_add stag d in
  t.tag.(flow) <- ftag;
  t.last <- ftag;
  stag

let advance_eat t ~now pkt =
  let flow = pkt.Packet.flow in
  if flow >= Array.length t.tag then grow t flow;
  if t.sor.(flow) <= 0.0 then activate t flow;
  let d =
    match pkt.Packet.rate with
    | None ->
      let x = Float.round (float_of_int pkt.Packet.len *. t.sor.(flow)) in
      if x >= Tag.max_tag_f then Tag.max_tag
      else
        let i = int_of_float x in
        if i < 1 then 1 else i
    | Some r ->
      let x = Float.round (float_of_int pkt.Packet.len *. (t.scale /. r)) in
      if x >= Tag.max_tag_f then Tag.max_tag
      else
        let i = int_of_float x in
        if i < 1 then 1 else i
  in
  let nt =
    let x = Float.round (now *. t.scale) in
    if x >= Tag.max_tag_f then Tag.max_tag else if x <= 0.0 then 0 else int_of_float x
  in
  let fl = t.tag.(flow) in
  let eat = if nt > fl then nt else fl in
  let stamp = Tag.sat_add eat d in
  t.tag.(flow) <- stamp;
  t.last <- stamp;
  eat

let last t = t.last

let get t flow = if flow < Array.length t.tag then t.tag.(flow) else 0

let set t flow v =
  if flow >= Array.length t.tag then grow t flow;
  t.tag.(flow) <- v

let clear t = Array.fill t.tag 0 (Array.length t.tag) 0

let forget t flow =
  if flow >= 0 && flow < Array.length t.tag then begin
    t.tag.(flow) <- 0;
    t.sor.(flow) <- 0.0
  end
