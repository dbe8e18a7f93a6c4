(** Deletion-only compact binary relation (Section 5): the string S in an
    H0-compressed wavelet tree, each object's first S position (in place
    of the paper's unary degrees N), and Lemma-3 liveness structures.
    Built once from a pair set; supports lazy pair deletion and the
    1/tau purge signal. Objects/labels are arbitrary external ints
    (mapped internally to the effective alphabet). *)

type t

(** [build ~tau pairs] sorts the pairs once ({!sort_pairs}) and builds
    them with {!of_sorted}. Raises [Invalid_argument] on duplicate
    pairs. *)
val build : tau:int -> (int * int) array -> t

(** [of_sorted ~tau objs labs] builds the pairs [(objs.(i), labs.(i))],
    strictly increasing in (object, label) order, in a few linear
    passes. Raises [Invalid_argument] on a duplicate or out-of-order
    pair, or if [tau < 1]. *)
val of_sorted : tau:int -> int array -> int array -> t

(** [sort_pairs objs labs] is the pairs [(objs.(i), labs.(i))] in
    (object, label) order, duplicates kept: a stable LSD radix sort on
    the int keys, correct for every [int]. *)
val sort_pairs : int array -> int array -> int array * int array

(** Number of pairs not yet lazily deleted. *)
val live_pairs : t -> int

(** Number of lazily deleted pairs still resident. *)
val dead_pairs : t -> int

(** [live_pairs + dead_pairs]. *)
val total_pairs : t -> int

(** Dead fraction exceeded 1/tau: the owner should rebuild. *)
val needs_purge : t -> bool

(** No live pairs left. *)
val is_empty : t -> bool

(** Membership of a live pair; O(log log + rank). *)
val related : t -> int -> int -> bool

(** Report live labels related to an object: O(1) per result after the
    range lookup. *)
val labels_of_object : t -> int -> f:(int -> unit) -> unit

(** Report live objects related to a label: a select on S per result,
    and a forward search of the objects' S offsets from the previous
    result's object. *)
val objects_of_label : t -> int -> f:(int -> unit) -> unit

(** O(log n) via the liveness counter. *)
val count_labels_of_object : t -> int -> int

(** O(log n) via the label-order liveness counter. *)
val count_objects_of_label : t -> int -> int

(** Lazy deletion of one pair; [false] if absent or already dead. *)
val delete : t -> int -> int -> bool

(** All live pairs as [(objects, labels)], in (object, label) order:
    [S] decoded in bulk plus one walk over [D]. The input {!of_sorted}
    takes, so rebuilds never sort. *)
val live_sorted : t -> int array * int array

(** Measured resident size in bits. *)
val space_bits : t -> int
