open Sfq_util

module Tree = Sfq_core.Hsfq.Make (struct
  let name = "Pifo_tree"
  let sched_name = "pifo-hsfq"

  type codec = Tag.t
  type tag = int
  type scale = float (* Tag.scale / weight *)

  let zero = 0
  let max (a : int) b = if a > b then a else b
  let lt (a : int) b = a < b
  let scale codec ~weight = Tag.scale_over codec ~rate:weight
  let finish s sor ~len = Tag.sat_add s (Tag.delta ~sor ~len)
  let decode = Tag.decode

  type 'a pifo = 'a Iheap.t

  let pifo () = Iheap.create ()
  let add h s ~seq e = Iheap.add h ~key:s ~tie:0 ~uid:seq e
  let min = Iheap.min_elt
  let drop_min = Iheap.remove_root
  let is_empty = Iheap.is_empty
  let remove h pred = ignore (Iheap.remove_matching h ~pred)
end)

include Tree

let create ?frac_bits () = Tree.create (Tag.make ?frac_bits ())
