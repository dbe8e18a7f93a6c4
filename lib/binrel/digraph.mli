(** Dynamic directed graph (Theorem 3): a binary relation on the node
    set; edge u -> v is "object u related to label v", held in one
    {!Dyn_binrel}. *)

type t

(** [create ()] is the empty graph. [tau] tunes the relation's
    lazy-deletion schedule (see {!Dyn_binrel.create}, which rejects
    [tau < 1]). *)
val create : ?tau:int -> unit -> t

(** [add_edge t u v]; [false] if the edge exists. *)
val add_edge : t -> int -> int -> bool

(** [remove_edge t u v]; [false] if absent. *)
val remove_edge : t -> int -> int -> bool

(** Adjacency test: does edge [u -> v] exist? *)
val mem_edge : t -> int -> int -> bool

(** Number of live edges. *)
val edge_count : t -> int

(** Sorted out-neighbors of [u]. *)
val successors : t -> int -> int list

(** Sorted in-neighbors of [v]. *)
val predecessors : t -> int -> int list

(** Iterate out-neighbors of [u] in ascending order. *)
val iter_successors : t -> int -> f:(int -> unit) -> unit

(** Iterate in-neighbors of [v] in ascending order. *)
val iter_predecessors : t -> int -> f:(int -> unit) -> unit

(** Out-degree of [u]. *)
val out_degree : t -> int -> int

(** In-degree of [v]. *)
val in_degree : t -> int -> int

(** Measured resident size in bits (see {!Dyn_binrel.space_bits}). *)
val space_bits : t -> int

(** Update counters of the underlying relation. *)
val stats : t -> Dyn_binrel.stats

(** {1 Persistence}

    A graph's snapshot unit is its edge set: the relation's layout is
    an amortization artifact, rebuilt on reinsertion
    ({!Dyn_binrel.iter_pairs}). *)

(** Every live edge [u -> v], in [(u, v)] order. *)
val iter_edges : t -> f:(int -> int -> unit) -> unit

(** {!iter_edges} collected. *)
val edges : t -> (int * int) list

(** [of_edges pairs] rebuilds a graph from a persisted edge set
    (duplicates ignored) — the recovery path of the store codec. The
    edges are built in bulk ({!Dyn_binrel.of_pairs}) as one static
    structure rather than one merge cascade per edge, with the
    relation's update counters left at zero. *)
val of_edges : ?tau:int -> (int * int) list -> t
