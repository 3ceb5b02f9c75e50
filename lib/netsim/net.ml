open Sfq_util
open Sfq_base

type node = { name : string; index : int }

type link = { server : Server.t; prop_delay : float }

type t = {
  sim : Sim.t;
  nodes : (string, node) Hashtbl.t;
  (* Links in creation order; [link_ids] maps (src, dst) node indices to
     a position here and is read only at setup. *)
  links : link Vec.t;
  link_ids : (int * int, int) Hashtbl.t;
  routes : (Packet.flow, link array) Hashtbl.t;
  mutable delivered_handlers : (Packet.t -> at:float -> unit) list;
  mutable delivered : int;
  mutable injected : int;
}

let create sim =
  {
    sim;
    nodes = Hashtbl.create 16;
    links = Vec.create ();
    link_ids = Hashtbl.create 16;
    routes = Hashtbl.create 16;
    delivered_handlers = [];
    delivered = 0;
    injected = 0;
  }

let add_node t name =
  if Hashtbl.mem t.nodes name then
    invalid_arg (Printf.sprintf "Net.add_node: duplicate node %S" name);
  let node = { name; index = Hashtbl.length t.nodes } in
  Hashtbl.replace t.nodes name node;
  node

(* @raise Not_found when src->dst is not linked. *)
let find_link t ~src ~dst = Vec.get t.links (Hashtbl.find t.link_ids (src.index, dst.index))

let deliver t p =
  t.delivered <- t.delivered + 1;
  let at = Sim.now t.sim in
  List.iter (fun h -> h p ~at) t.delivered_handlers

(* [l] finished [p]: find [l] on [p]'s route from position [i], then,
   after [l]'s propagation delay, hand [p] to the next link, or deliver
   it when [l] is the last. *)
let rec forward_from t l p route i =
  if i < Array.length route then
    if route.(i) != l then forward_from t l p route (i + 1)
    else if i + 1 < Array.length route then begin
      let next = route.(i + 1).server in
      Sim.schedule_after t.sim ~delay:l.prop_delay (fun () -> Server.inject next p)
    end
    else Sim.schedule_after t.sim ~delay:l.prop_delay (fun () -> deliver t p)

(* Unrouted traffic, and a routed packet leaving a link off its route,
   ends at [l]. *)
let forward t l p =
  match Hashtbl.find_opt t.routes p.Packet.flow with
  | None -> ()
  | Some route -> forward_from t l p route 0

let link t ~src ~dst ~rate ~sched ?(prop_delay = 0.0) ?flow_buffer_limit ?buffer () =
  if prop_delay < 0.0 then invalid_arg "Net.link: negative propagation delay";
  if Hashtbl.mem t.link_ids (src.index, dst.index) then
    invalid_arg (Printf.sprintf "Net.link: %s->%s already exists" src.name dst.name);
  let server =
    Server.create t.sim
      ~name:(Printf.sprintf "%s->%s" src.name dst.name)
      ~rate ~sched ?flow_buffer_limit ?buffer ()
  in
  let l = { server; prop_delay } in
  Hashtbl.replace t.link_ids (src.index, dst.index) (Vec.length t.links);
  Vec.push t.links l;
  Server.on_depart server (fun p ~start:_ ~departed:_ -> forward t l p);
  server

let server t ~src ~dst = (find_link t ~src ~dst).server

let route_link t ~src ~dst =
  try find_link t ~src ~dst
  with Not_found ->
    invalid_arg (Printf.sprintf "Net.route: missing link %s->%s" src.name dst.name)

(* Fill [links] from position [i] with the links along [path]. *)
let rec resolve t links i = function
  | src :: (dst :: _ as rest) ->
    links.(i) <- route_link t ~src ~dst;
    resolve t links (i + 1) rest
  | [] | [ _ ] -> ()

let route t ~flow path =
  match path with
  | [] | [ _ ] -> invalid_arg "Net.route: a route needs at least two nodes"
  | src :: (dst :: _ as rest) ->
    let links = Array.make (List.length rest) (route_link t ~src ~dst) in
    resolve t links 1 rest;
    Hashtbl.replace t.routes flow links

let unroute t ~flow = Hashtbl.remove t.routes flow

let inject t p =
  match Hashtbl.find_opt t.routes p.Packet.flow with
  | None -> invalid_arg (Printf.sprintf "Net.inject: no route for flow %d" p.Packet.flow)
  | Some route ->
    t.injected <- t.injected + 1;
    Server.inject route.(0).server p

let on_delivered t h = t.delivered_handlers <- t.delivered_handlers @ [ h ]
let delivered t = t.delivered
let injected t = t.injected
