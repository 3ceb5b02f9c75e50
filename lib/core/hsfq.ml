open Sfq_util
open Sfq_base

module type KEY = Hsfq_intf.KEY
module type TREE = Hsfq_intf.TREE

let next_id = ref 0

module Make (K : KEY) = struct
  type node = {
    owner : int;  (* hierarchy id, to reject foreign class handles *)
    cid : int;  (* 0 = root, then creation order; stable trace identity *)
    kind : kind;
    mutable edge : edge option;  (* None for the root *)
  }

  and kind = Internal of internal | Leaf of Sched.t

  and internal = {
    (* The class's PIFO holds its active child edges; the children
       list keeps every edge reachable for backlog, evict and close
       (closing must reset inner per-flow state even in a currently
       empty leaf). *)
    pifo : edge K.pifo;
    mutable children : edge list;
    mutable v : K.tag;
    mutable max_finish_served : K.tag;
    mutable next_seq : int;
  }

  and edge = {
    child : node;
    scale : K.scale;
    parent : node;
    mutable stag : K.tag;
    mutable fprev : K.tag;  (* finish tag of the child's previous emission *)
    mutable active : bool;
    mutable seq : int;  (* PIFO tie-break: activation/emission order *)
  }

  type class_ = node

  type tag_hook =
    now:float -> class_id:int -> seq:int -> len:int -> stag:K.tag ->
    ftag:K.tag -> vtime:K.tag -> unit

  type t = {
    id : int;
    codec : K.codec;
    root_node : node;
    mutable classifier : (Packet.t -> class_) option;
    mutable count : int;
    mutable next_cid : int;
    (* guard cell dereferenced once per dequeue before the hook is
       threaded through the recursion; see Sfq.set_tag_hook *)
    mutable tag_hook : (bool ref * tag_hook) option;
  }

  let fail what = invalid_arg (K.name ^ what)

  let fresh_internal () =
    Internal
      { pifo = K.pifo (); children = []; v = K.zero; max_finish_served = K.zero; next_seq = 0 }

  let create codec =
    incr next_id;
    let id = !next_id in
    let root_node = { owner = id; cid = 0; kind = fresh_internal (); edge = None } in
    { id; codec; root_node; classifier = None; count = 0; next_cid = 1; tag_hook = None }

  let root t = t.root_node

  let internal_of node =
    match node.kind with Internal i -> i | Leaf _ -> fail ": parent class is a leaf"

  let add_edge t ~parent ~weight child_kind =
    if weight <= 0.0 then fail ": weight must be positive";
    if parent.owner <> t.id then fail ": class from another hierarchy";
    let i = internal_of parent in
    let child = { owner = t.id; cid = t.next_cid; kind = child_kind; edge = None } in
    t.next_cid <- t.next_cid + 1;
    let scale = K.scale t.codec ~weight in
    let edge =
      { child; scale; parent; stag = K.zero; fprev = K.zero; active = false; seq = 0 }
    in
    child.edge <- Some edge;
    i.children <- i.children @ [ edge ];
    child

  let add_class t ~parent ~weight = add_edge t ~parent ~weight (fresh_internal ())
  let add_leaf t ~parent ~weight inner = add_edge t ~parent ~weight (Leaf inner)
  let set_classifier t f = t.classifier <- Some f

  let classifier_by_flow assoc =
    let table = Hashtbl.create 16 in
    List.iter (fun (f, c) -> Hashtbl.replace table f c) assoc;
    fun pkt -> Hashtbl.find table pkt.Packet.flow

  let rec node_peek node =
    match node.kind with
    | Leaf inner -> inner.Sched.peek ()
    | Internal i -> ( match K.min i.pifo with None -> None | Some e -> node_peek e.child)

  let subtree_nonempty node =
    match node.kind with
    | Leaf inner -> inner.Sched.size () > 0
    | Internal i -> not (K.is_empty i.pifo)

  (* Queue [e] in its parent's PIFO at start tag [s], behind every
     edge already queued at that tag. *)
  let push i e s =
    e.stag <- s;
    e.seq <- i.next_seq;
    i.next_seq <- i.next_seq + 1;
    K.add i.pifo s ~seq:e.seq e

  (* Walk from a leaf to the root activating edges whose subtree just
     became non-empty, at S = max(v, F_prev). Stops at the first
     already-active edge: its ancestors are necessarily active too. *)
  let rec activate_upwards node =
    match node.edge with
    | None -> ()
    | Some e ->
      if not e.active then begin
        let i = internal_of e.parent in
        e.active <- true;
        push i e (K.max i.v e.fprev);
        activate_upwards e.parent
      end

  (* Inverse of [activate_upwards]: removals can empty a subtree
     without a dequeue, and an active edge over an empty subtree would
     break [node_peek]'s invariant. Stops at the first edge whose
     subtree is still non-empty. Tags are untouched: the class keeps
     its virtual-time charge, exactly like a flow under eq. 4. *)
  let rec deactivate_upwards node =
    match node.edge with
    | None -> ()
    | Some e ->
      if e.active && not (subtree_nonempty node) then begin
        e.active <- false;
        K.remove (internal_of e.parent).pifo (fun e' -> e' == e);
        deactivate_upwards e.parent
      end

  let enqueue t ~now pkt =
    let classify =
      match t.classifier with Some f -> f | None -> fail ".enqueue: no classifier set"
    in
    let leaf = classify pkt in
    if leaf.owner <> t.id then fail ".enqueue: class from another hierarchy";
    match leaf.kind with
    | Internal _ -> fail ".enqueue: classifier returned a non-leaf class"
    | Leaf inner ->
      (* Count what the leaf kept: a buffered leaf may reject the
         packet or evict another to admit it. *)
      let before = inner.Sched.size () in
      inner.Sched.enqueue ~now pkt;
      let after = inner.Sched.size () in
      t.count <- t.count + after - before;
      if before = 0 && after > 0 then activate_upwards leaf

  (* One scheduling transaction per level: pop the PIFO's minimum
     edge, emit from its subtree, push the edge back (rank = next
     start tag) if the subtree is still non-empty. *)
  let rec node_dequeue hook node ~now =
    match node.kind with
    | Leaf inner -> inner.Sched.dequeue ~now
    | Internal i -> (
      match K.min i.pifo with
      | None -> None
      | Some e -> (
        K.drop_min i.pifo;
        (* The emitted packet's length fixes this emission's finish
           tag; peek agrees with the recursive dequeue. *)
        match node_peek e.child with
        | None -> assert false (* active edge over an empty subtree *)
        | Some head ->
          let len = head.Packet.len in
          let ftag = K.finish e.stag e.scale ~len in
          i.v <- e.stag;
          (match hook with
          | None -> ()
          | Some h -> h ~now ~class_id:e.child.cid ~seq:e.seq ~len ~stag:e.stag ~ftag ~vtime:i.v);
          let p = node_dequeue hook e.child ~now in
          e.fprev <- ftag;
          if K.lt i.max_finish_served ftag then i.max_finish_served <- ftag;
          if subtree_nonempty e.child then push i e ftag else e.active <- false;
          (* A subtree that empties leaves [i.v] at the emission's
             start tag: the emitted packet is conceptually still in
             service, and bumping v here would replay, one level up,
             the busy-period bug the flat scheduler's idle-poll rule
             avoids. Only the root bumps, in [dequeue]. *)
          p))

  let dequeue t ~now =
    let hook =
      match t.tag_hook with Some (active, h) when !active -> Some h | Some _ | None -> None
    in
    match node_dequeue hook t.root_node ~now with
    | None ->
      let i = internal_of t.root_node in
      i.v <- K.max i.v i.max_finish_served;
      None
    | Some p ->
      t.count <- t.count - 1;
      Some p

  let peek t = node_peek t.root_node
  let size t = t.count

  let rec node_backlog node flow =
    match node.kind with
    | Leaf inner -> inner.Sched.backlog flow
    | Internal i -> List.fold_left (fun acc e -> acc + node_backlog e.child flow) 0 i.children

  let backlog t flow = node_backlog t.root_node flow

  let own t what node = if node.owner <> t.id then fail (what ^ ": class from another hierarchy")

  let class_vtime t node =
    own t ".class_vtime" node;
    match node.kind with Internal i -> K.decode t.codec i.v | Leaf _ -> 0.0

  let class_id t node =
    own t ".class_id" node;
    node.cid

  let set_tag_hook t ?(active = ref true) h = t.tag_hook <- Some (active, h)
  let clear_tag_hook t = t.tag_hook <- None

  let evict t ~now victim flow =
    let rec find node =
      match node.kind with
      | Leaf inner when inner.Sched.backlog flow > 0 ->
        let p = inner.Sched.evict ~now victim flow in
        if Option.is_some p then begin
          t.count <- t.count - 1;
          deactivate_upwards node
        end;
        p
      | Leaf _ -> None
      | Internal i -> List.find_map (fun e -> find e.child) i.children
    in
    find t.root_node

  let close_flow t ~now flow =
    let rec go node acc =
      match node.kind with
      | Leaf inner ->
        let flushed = inner.Sched.close_flow ~now flow in
        if flushed <> [] then begin
          t.count <- t.count - List.length flushed;
          deactivate_upwards node
        end;
        acc @ flushed
      | Internal i -> List.fold_left (fun acc e -> go e.child acc) acc i.children
    in
    go t.root_node []

  let sched t =
    {
      Sched.name = K.sched_name;
      enqueue = enqueue t;
      dequeue = dequeue t;
      peek = (fun () -> peek t);
      size = (fun () -> size t);
      backlog = backlog t;
      evict = evict t;
      close_flow = close_flow t;
    }
end

include Make (struct
  let name = "Hsfq"
  let sched_name = "hsfq"

  type codec = unit
  type tag = float
  type scale = float (* the edge's weight *)

  let zero = 0.0
  let max = Float.max
  let lt (a : float) b = a < b
  let scale () ~weight = weight
  let finish s w ~len = s +. (float_of_int len /. w)
  let decode () v = v

  type 'a pifo = 'a Fheap.t

  let pifo () = Fheap.create ()
  let add h s ~seq e = Fheap.add h ~key:s ~tie:0.0 ~uid:seq e
  let min = Fheap.min_elt
  let drop_min h = ignore (Fheap.pop_elt h)
  let is_empty = Fheap.is_empty
  let remove h pred = ignore (Fheap.remove_matching h ~pred)
end)
