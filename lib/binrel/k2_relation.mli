(** k²-tree-style dynamic adjacency matrix (Brisaboa et al.): a
    recursive 16-ary quadtree (4×4 subsquares per level) over the
    node×node boolean matrix with packed child bitmaps and adaptive
    64×64 leaves — sparse leaves hold packed sorted cell offsets,
    dense leaves a 4096-bit bitmap. It is the space comparator for
    {!Dyn_binrel} in the [binrel] bench (the Brisaboa et al.
    comparison); no engine path links it.

    Empty subsquares are unrepresented; every update touches one
    root-to-leaf path (O(log side) nodes, no amortized rebuilds); the
    matrix side quadruples on demand when a pair lands beyond the
    current universe. Object/label ids are non-negative ints. *)

type t

(** Update counters: [grows] is the number of universe quadruplings
    (the k²-tree analogue of {!Dyn_binrel}'s global rebuilds). *)
type stats = { grows : int }

(** [create ()] is the empty relation over a 64×64 universe. *)
val create : unit -> t

(** Counter snapshot (see {!stats}). *)
val stats : t -> stats

(** The relation's private observability scope: counters
    [adds]/[removes]/[grows] plus [Restructure] events on each
    universe growth. *)
val obs : t -> Dsdg_obs.Obs.scope

(** Number of live pairs. *)
val live_pairs : t -> int

(** Current matrix side (64 times a power of four); pairs with both
    coordinates below [side t] need no growth to insert. *)
val side : t -> int

(** [add t o a] relates object [o] to label [a], growing the universe
    as needed; [false] if already related. Raises [Invalid_argument]
    on negative ids. *)
val add : t -> int -> int -> bool

(** [remove t o a]; [false] if not related. Emptied blocks are pruned
    immediately, and drained dense leaves fall back to the sparse
    representation. *)
val remove : t -> int -> int -> bool

(** Membership test: is [o] related to [a]? *)
val related : t -> int -> int -> bool

(** Iterate the labels of object [o] (row [o] of the matrix) in
    ascending label order. *)
val labels_of_object : t -> int -> f:(int -> unit) -> unit

(** Iterate the objects of label [a] (column [a]) in ascending object
    order. *)
val objects_of_label : t -> int -> f:(int -> unit) -> unit

(** Sorted list versions of the iterators. *)
val labels_of_object_list : t -> int -> int list

(** Sorted objects related to a label. *)
val objects_of_label_list : t -> int -> int list

(** Number of labels related to [o] (out-degree). *)
val count_labels_of_object : t -> int -> int

(** Number of objects related to [a] (in-degree). *)
val count_objects_of_label : t -> int -> int

(** Measured resident size in bits, all directory constants included —
    comparable with {!Dyn_binrel.space_bits}. *)
val space_bits : t -> int

(** {1 Persistence}

    The snapshot unit is the live pair set, exactly as for
    {!Dyn_binrel}: the quadtree shape is a deterministic function of
    the pairs and is rebuilt on reinsertion. *)

(** Every live [(object, label)] pair, in block (quadtree) order. *)
val iter_pairs : t -> f:(int -> int -> unit) -> unit

(** {!iter_pairs} collected and sorted. *)
val pairs_list : t -> (int * int) list
