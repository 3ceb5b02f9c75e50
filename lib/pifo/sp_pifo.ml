open Sfq_base

(* SP-PIFO (Alcoz, Dietmüller, Vanbever, NSDI'20); the admission rule
   is described in the interface. Bounds stay sorted ascending by
   construction: push-up at index i only happens after indices > i
   were rejected (their bounds exceed the rank), and push-down shifts
   all bounds by a constant. Every entry carries its global arrival
   number, so eviction and flushing follow arrival order whatever bank
   holds the packet. *)

type bank = {
  mutable bkeys : int array;  (* rank of each queued packet *)
  mutable bauxs : int array;  (* the runtime's aux output *)
  mutable buids : int array;  (* global arrival number *)
  mutable bdata : Packet.t array;
  mutable bhead : int;
  mutable blen : int;
}

let bank_make () =
  { bkeys = [||]; bauxs = [||]; buids = [||]; bdata = [||]; bhead = 0; blen = 0 }

(* A doubled copy of a ring's backing array, unwrapped so the oldest
   entry lands at index 0. *)
let unwrap a ~head ~cap fill =
  let b = Array.make cap fill in
  let tail = Array.length a - head in
  Array.blit a head b 0 tail;
  Array.blit a 0 b tail head;
  b

let bank_grow b v =
  if b.blen = Array.length b.bdata then begin
    let head = b.bhead and cap = Stdlib.max 8 (2 * b.blen) in
    b.bkeys <- unwrap b.bkeys ~head ~cap 0;
    b.bauxs <- unwrap b.bauxs ~head ~cap 0;
    b.buids <- unwrap b.buids ~head ~cap 0;
    b.bdata <- unwrap b.bdata ~head ~cap v;
    b.bhead <- 0
  end

let bank_push b ~key ~aux ~uid pkt =
  bank_grow b pkt;
  let i = (b.bhead + b.blen) land (Array.length b.bdata - 1) in
  b.bkeys.(i) <- key;
  b.bauxs.(i) <- aux;
  b.buids.(i) <- uid;
  b.bdata.(i) <- pkt;
  b.blen <- b.blen + 1

(* Remove the k-th queued entry (0 = head) by shifting the tail left.
   Off the hot path: only eviction/flushing use it. *)
let bank_remove_at b k =
  let mask = Array.length b.bdata - 1 in
  for j = k to b.blen - 2 do
    let dst = (b.bhead + j) land mask in
    let src = (b.bhead + j + 1) land mask in
    b.bkeys.(dst) <- b.bkeys.(src);
    b.bauxs.(dst) <- b.bauxs.(src);
    b.buids.(dst) <- b.buids.(src);
    b.bdata.(dst) <- b.bdata.(src)
  done;
  b.blen <- b.blen - 1

type t = {
  nbanks : int;
  bounds : int array;
  banks : bank array;
  mutable counts : int array;  (* per-flow backlog *)
  mutable total : int;
  mutable next_uid : int;
  mutable pushups : int;
  mutable pushdowns : int;
  mutable last_key : int;
  mutable last_aux : int;
}

let create ~banks =
  if banks < 1 then invalid_arg "Sp_pifo.create: banks must be >= 1";
  {
    nbanks = banks;
    bounds = Array.make banks 0;
    banks = Array.init banks (fun _ -> bank_make ());
    counts = [||];
    total = 0;
    next_uid = 0;
    pushups = 0;
    pushdowns = 0;
    last_key = 0;
    last_aux = 0;
  }

let push t ~key ~aux pkt =
  let flow = pkt.Packet.flow in
  if flow >= Array.length t.counts then t.counts <- Flow_state.cover t.counts flow 0;
  t.counts.(flow) <- t.counts.(flow) + 1;
  t.total <- t.total + 1;
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  (* scan lowest priority -> highest for the first bound <= key *)
  let i = ref (t.nbanks - 1) in
  while !i >= 0 && t.bounds.(!i) > key do
    decr i
  done;
  if !i >= 0 then begin
    (* push-up: the admitting bank's bound rises to the admitted rank *)
    t.bounds.(!i) <- key;
    t.pushups <- t.pushups + 1;
    bank_push t.banks.(!i) ~key ~aux ~uid pkt
  end
  else begin
    (* unavoidable inversion: admit at top, relax every bound down *)
    let cost = t.bounds.(0) - key in
    for j = 0 to t.nbanks - 1 do
      t.bounds.(j) <- t.bounds.(j) - cost
    done;
    t.pushdowns <- t.pushdowns + 1;
    bank_push t.banks.(0) ~key ~aux ~uid pkt
  end

let first_busy t =
  let i = ref 0 in
  while t.banks.(!i).blen = 0 do
    incr i
  done;
  t.banks.(!i)

let pop_exn t =
  if t.total = 0 then invalid_arg "Sp_pifo.pop_exn: empty";
  let b = first_busy t in
  let j = b.bhead in
  t.last_key <- b.bkeys.(j);
  t.last_aux <- b.bauxs.(j);
  let pkt = b.bdata.(j) in
  b.bhead <- (j + 1) land (Array.length b.bdata - 1);
  b.blen <- b.blen - 1;
  t.total <- t.total - 1;
  t.counts.(pkt.Packet.flow) <- t.counts.(pkt.Packet.flow) - 1;
  pkt

let last_key t = t.last_key
let last_aux t = t.last_aux

let peek t =
  if t.total = 0 then None
  else
    let b = first_busy t in
    Some b.bdata.(b.bhead)

let size t = t.total
let is_empty t = t.total = 0

let backlog t flow =
  if flow >= 0 && flow < Array.length t.counts then t.counts.(flow) else 0

let banks t = t.nbanks
let bounds t = Array.copy t.bounds
let pushups t = t.pushups
let pushdowns t = t.pushdowns

(* Remove the flow's oldest (or newest) entry across all banks, by
   arrival number. O(total queued) — the buffer-overflow path. *)
let evict t ~newest flow =
  if backlog t flow = 0 then None
  else begin
    let bi = ref (-1) and bk = ref 0 and best = ref 0 in
    Array.iteri
      (fun i b ->
        for k = 0 to b.blen - 1 do
          let s = (b.bhead + k) land (Array.length b.bdata - 1) in
          let u = b.buids.(s) in
          if
            b.bdata.(s).Packet.flow = flow
            && (!bi < 0 || if newest then u > !best else u < !best)
          then begin
            bi := i;
            bk := k;
            best := u
          end
        done)
      t.banks;
    let b = t.banks.(!bi) in
    let pkt = b.bdata.((b.bhead + !bk) land (Array.length b.bdata - 1)) in
    bank_remove_at b !bk;
    t.total <- t.total - 1;
    t.counts.(flow) <- t.counts.(flow) - 1;
    Some pkt
  end

let evict_front t flow = evict t ~newest:false flow
let evict_back t flow = evict t ~newest:true flow

let flush_flow t flow =
  let rec drain acc =
    match evict_front t flow with Some p -> drain (p :: acc) | None -> List.rev acc
  in
  drain []
