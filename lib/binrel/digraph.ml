(* Dynamic directed graph (Theorem 3): a binary relation on the node set
   where object u related to label v encodes the edge u -> v.  Neighbor
   enumeration, reverse neighbors, adjacency tests and degree counting all
   reduce to relation queries, dispatched through the Rel_backend seam so
   one runtime choice switches the whole graph between the string-based
   hierarchy and the k2-tree adjacency matrix. *)

type t = { rel : Rel_backend.rel }

let create ?tau ?(backend = Rel_backend.Str) () =
  { rel = Rel_backend.create ?tau backend }

let backend t = Rel_backend.kind_of t.rel

(* Add edge u -> v; false if already present. *)
let add_edge t u v = Rel_backend.add t.rel u v

(* Remove edge u -> v; false if absent. *)
let remove_edge t u v = Rel_backend.remove t.rel u v

let mem_edge t u v = Rel_backend.related t.rel u v
let edge_count t = Rel_backend.live_pairs t.rel

(* Out-neighbors of u. *)
let successors t u = Rel_backend.labels_of_object_list t.rel u

(* In-neighbors of v. *)
let predecessors t v = Rel_backend.objects_of_label_list t.rel v

let iter_successors t u ~f = Rel_backend.labels_of_object t.rel u ~f
let iter_predecessors t v ~f = Rel_backend.objects_of_label t.rel v ~f
let out_degree t u = Rel_backend.count_labels_of_object t.rel u
let in_degree t v = Rel_backend.count_objects_of_label t.rel v
let space_bits t = Rel_backend.space_bits t.rel
let stats t = Rel_backend.stats t.rel

(* Persistence: a graph is its edge set. *)
let iter_edges t ~f = Rel_backend.iter_pairs t.rel ~f
let edges t = Rel_backend.pairs_list t.rel

let of_edges ?tau ?(backend = Rel_backend.Str) pairs =
  { rel = Rel_backend.of_pairs ?tau backend pairs }
