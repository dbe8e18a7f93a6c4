(** Fully-dynamic compact binary relation (Theorem 2): object-label
    pairs with reporting/counting in both directions.

    Transformation-1 layout over pairs: an uncompressed buffer C0 plus
    geometrically growing deletion-only {!Static_binrel} structures with
    lazy deletion and 1/tau purging. Object and label ids are arbitrary
    ints. *)

type t

(** Read-only snapshot of the amortization counters (backed by the
    structure's {!Dsdg_obs.Obs} scope). *)
type stats = {
  merges : int;
  purges : int;
  global_rebuilds : int;
}

(** [create ()] is the empty relation; [tau] tunes the lazy-deletion
    purge threshold 1/tau (default 8). Raises [Invalid_argument] if
    [tau < 1]. *)
val create : ?tau:int -> unit -> t

(** Counter snapshot (see {!stats}). *)
val stats : t -> stats

(** The relation's private observability scope: counters
    [merges]/[purges]/[global_rebuilds]/[adds]/[removes] plus the
    structural event ring. *)
val obs : t -> Dsdg_obs.Obs.scope

(** Number of live pairs. *)
val live_pairs : t -> int

(** [of_pairs pairs] is the relation holding [pairs] (duplicates
    ignored), built in bulk: one static structure in the top slot, the
    state {!add}'s global rebuild leaves behind, instead of one merge
    cascade per pair. It is construction, not a rebuild: every {!stats}
    counter of the result is zero. Raises [Invalid_argument] if
    [tau < 1]. *)
val of_pairs : ?tau:int -> (int * int) list -> t

(** [add t o a] relates object [o] to label [a]; [false] if already
    related. *)
val add : t -> int -> int -> bool

(** [remove t o a]; [false] if not related. *)
val remove : t -> int -> int -> bool

(** Membership test. *)
val related : t -> int -> int -> bool

(** Iterate the live labels of object [o]. *)
val labels_of_object : t -> int -> f:(int -> unit) -> unit

(** Iterate the live objects of label [a]. *)
val objects_of_label : t -> int -> f:(int -> unit) -> unit

(** Sorted list versions of the iterators. *)
val labels_of_object_list : t -> int -> int list

(** Sorted objects related to a label. *)
val objects_of_label_list : t -> int -> int list

(** Number of labels related to [o]. *)
val count_labels_of_object : t -> int -> int

(** Number of objects related to [a]. *)
val count_objects_of_label : t -> int -> int

(** Measured resident size in bits, all directory constants included;
    comparable with {!K2_relation.space_bits}, the bench comparator. *)
val space_bits : t -> int

(** {1 Persistence}

    The snapshot unit serialized by [Dsdg_store]: the live pair set. A
    relation has no other state worth persisting -- the sub-structure
    layout is an amortization artifact, rebuilt on reinsertion. *)

(** Every live [(object, label)] pair, across the C0 buffer and all
    sub-structures, in (object, label) order: the sub-structures'
    sorted runs and the sorted buffer merged, the input every merge
    and rebuild builds from. *)
val iter_pairs : t -> f:(int -> int -> unit) -> unit

(** {!iter_pairs} collected. *)
val pairs_list : t -> (int * int) list
