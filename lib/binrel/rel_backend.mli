(** The dynamic-relation backend seam.

    Two backends implement the same dynamic binary-relation signature:
    the incumbent string-based Transformation-1 hierarchy
    ({!Dyn_binrel}, wavelet/Reporter sub-structures, amortized
    rebuilds) and the k²-tree adjacency matrix ({!K2_relation}, packed
    quadtree, space-competitive on sparse clustered graphs). The seam
    is a runtime [kind] selected by the [--rel-backend] CLI flag, a
    shared module type, and a packed existential for callers that hold
    a backend-chosen relation in an ordinary field.

    The kind is a runtime choice, never persisted: snapshots store the
    live pair set and recovery re-ingests it into whichever backend
    the reopening process selects. *)

type kind = Str | K2

(** ["str"] or ["k2"] — the CLI flag spelling. *)
val kind_to_string : kind -> string

(** Inverse of {!kind_to_string}; [None] on unknown names. *)
val kind_of_string : string -> kind option

(** All backends, in matrix order. *)
val all_kinds : kind list

(** Union of both backends' update counters; fields foreign to a
    backend read zero ([grows] for [Str]; [merges], [purges] and
    [global_rebuilds] for [K2]). *)
type stats = { merges : int; purges : int; global_rebuilds : int; grows : int }

(** Operations every relation backend provides; semantics mirror
    {!Dyn_binrel} (pair-set membership, ascending list queries, the
    live pair set as the snapshot unit). *)
module type S = sig
  type t

  val name : string
  val create : ?tau:int -> unit -> t

  (** The relation holding a pair set (duplicates ignored), built in
      bulk where the backend can: [Str] installs it as one static
      structure (the state a global rebuild produces), [K2] adds pair by
      pair. *)
  val of_pairs : ?tau:int -> (int * int) list -> t

  val add : t -> int -> int -> bool
  val remove : t -> int -> int -> bool
  val related : t -> int -> int -> bool
  val labels_of_object : t -> int -> f:(int -> unit) -> unit
  val objects_of_label : t -> int -> f:(int -> unit) -> unit
  val labels_of_object_list : t -> int -> int list
  val objects_of_label_list : t -> int -> int list
  val count_labels_of_object : t -> int -> int
  val count_objects_of_label : t -> int -> int
  val live_pairs : t -> int
  val space_bits : t -> int
  val stats : t -> stats
  val obs : t -> Dsdg_obs.Obs.scope
  val iter_pairs : t -> f:(int -> int -> unit) -> unit
  val pairs_list : t -> (int * int) list
end

(** {!Dyn_binrel} under the seam signature. *)
module Str_backend : S

(** {!K2_relation} under the seam signature. *)
module K2_backend : S

(** The backend module for a kind. *)
val of_kind : kind -> (module S)

(** A relation packed with its backend's operations. *)
type rel = Rel : (module S with type t = 'a) * 'a -> rel

(** [create kind] is an empty relation of that backend; [tau] tunes
    the [Str] lazy-deletion schedule and is ignored by [K2]. *)
val create : ?tau:int -> kind -> rel

(** [of_pairs kind pairs] is {!create} followed by every pair, built
    in bulk through the backend's [of_pairs] -- the recovery path of a
    persisted pair set. *)
val of_pairs : ?tau:int -> kind -> (int * int) list -> rel

(** The kind a packed relation was created with. *)
val kind_of : rel -> kind

(** [add r o a]; [false] if already related. *)
val add : rel -> int -> int -> bool

(** [remove r o a]; [false] if not related. *)
val remove : rel -> int -> int -> bool

(** Membership test. *)
val related : rel -> int -> int -> bool

(** Iterate labels of [o], ascending. *)
val labels_of_object : rel -> int -> f:(int -> unit) -> unit

(** Iterate objects of [a], ascending. *)
val objects_of_label : rel -> int -> f:(int -> unit) -> unit

(** Sorted labels of an object. *)
val labels_of_object_list : rel -> int -> int list

(** Sorted objects of a label. *)
val objects_of_label_list : rel -> int -> int list

(** Out-degree of [o]. *)
val count_labels_of_object : rel -> int -> int

(** In-degree of [a]. *)
val count_objects_of_label : rel -> int -> int

(** Number of live pairs. *)
val live_pairs : rel -> int

(** Measured resident size in bits (comparable across backends). *)
val space_bits : rel -> int

(** Update-counter snapshot (see {!stats}). *)
val stats : rel -> stats

(** The backend's private observability scope. *)
val obs : rel -> Dsdg_obs.Obs.scope

(** Every live pair, unordered — the snapshot unit. *)
val iter_pairs : rel -> f:(int -> int -> unit) -> unit

(** {!iter_pairs} collected and sorted. *)
val pairs_list : rel -> (int * int) list
