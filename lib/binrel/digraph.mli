(** Dynamic directed graph (Theorem 3): a binary relation on the node
    set; edge u -> v is "object u related to label v". The relation
    itself is backend-chosen through {!Rel_backend} — the string-based
    hierarchy ([Str], the default) or the k²-tree adjacency matrix
    ([K2]) — with identical query answers either way. *)

type t

(** [create ()] is the empty graph. [tau] tunes the [Str] backend's
    lazy-deletion schedule (ignored by [K2]); [backend] (default
    [Str]) picks the relation representation for the graph's whole
    lifetime. *)
val create : ?tau:int -> ?backend:Rel_backend.kind -> unit -> t

(** The backend this graph was created with. *)
val backend : t -> Rel_backend.kind

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

(** Measured resident size in bits; comparable across backends. *)
val space_bits : t -> int

(** Update counters of the underlying relation; fields foreign to the
    chosen backend read zero (see {!Rel_backend.stats}). *)
val stats : t -> Rel_backend.stats

(** {1 Persistence}

    A graph's snapshot unit is its edge set — for {e every} backend:
    both representations are deterministic functions of the live pairs
    and are rebuilt on reinsertion ({!Rel_backend.iter_pairs}). The
    backend kind itself is a runtime choice and is deliberately not
    persisted: pairs recovered from a snapshot may be re-ingested into
    either backend. *)

(** Every live edge [u -> v], in no particular order. *)
val iter_edges : t -> f:(int -> int -> unit) -> unit

(** {!iter_edges} collected and sorted. *)
val edges : t -> (int * int) list

(** [of_edges pairs] rebuilds a graph from a persisted edge set
    (duplicates ignored) — the recovery path of the store codec. The
    edges are built in bulk ({!Rel_backend.of_pairs}): on [Str] as one
    static structure rather than one merge cascade per edge, with the
    relation's update counters left at zero. *)
val of_edges : ?tau:int -> ?backend:Rel_backend.kind -> (int * int) list -> t
