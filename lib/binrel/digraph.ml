(* Dynamic directed graph (Theorem 3): a binary relation on the node set
   where object u related to label v encodes the edge u -> v.  Neighbor
   enumeration, reverse neighbors, adjacency tests and degree counting all
   reduce to Dyn_binrel queries. *)

type t = Dyn_binrel.t

let create = Dyn_binrel.create

(* Add edge u -> v; false if already present. *)
let add_edge = Dyn_binrel.add

(* Remove edge u -> v; false if absent. *)
let remove_edge = Dyn_binrel.remove

let mem_edge = Dyn_binrel.related
let edge_count = Dyn_binrel.live_pairs

(* Out-neighbors of u. *)
let successors = Dyn_binrel.labels_of_object_list

(* In-neighbors of v. *)
let predecessors = Dyn_binrel.objects_of_label_list

let iter_successors = Dyn_binrel.labels_of_object
let iter_predecessors = Dyn_binrel.objects_of_label
let out_degree = Dyn_binrel.count_labels_of_object
let in_degree = Dyn_binrel.count_objects_of_label
let space_bits = Dyn_binrel.space_bits
let stats = Dyn_binrel.stats

(* Persistence: a graph is its edge set. *)
let iter_edges = Dyn_binrel.iter_pairs
let edges = Dyn_binrel.pairs_list
let of_edges = Dyn_binrel.of_pairs
