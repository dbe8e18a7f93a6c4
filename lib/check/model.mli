(** Reference models for differential checking.

    Deliberately naive: an association table of live documents with
    O(n m) substring scanning, and a flat edge set for the binary
    relation. Everything the dynamic structures compute cleverly
    (suffix trees, wavelet trees, Dietz-Sleator schedules) is recomputed
    here by brute force, so any disagreement indicts the structure, not
    the model. *)

type t

val create : unit -> t

(** Ids are assigned sequentially from 0, mirroring
    [Dynamic_index.insert] in every variant, so the k-th insert receives
    the same id in the model and in each structure under test. *)
val insert : t -> string -> int

val delete : t -> int -> bool
val mem : t -> int -> bool

(** Inserts so far: every id below it was assigned once. *)
val inserted : t -> int

(** Live [(id, text)] pairs, sorted by id. *)
val live : t -> (int * string) list

val doc_count : t -> int

(** Live symbols including one separator per document (matching
    [Dynamic_index.total_symbols]). *)
val total_symbols : t -> int

(** [occurrences docs p]: all [(doc, offset)] occurrences of [p] in the
    given documents, sorted -- the shared naive-search primitive, usable
    on any document list (the test suites drive it directly). *)
val occurrences : (int * string) list -> string -> (int * int) list

(** {!search}/{!count} raise [Invalid_argument] on the empty pattern and
    {!extract} with [len = 0] is [Some ""] iff the document is live --
    the same conventions [Dynamic_index] enforces, so the runner can
    compare outcomes (including the rejection) one-to-one. *)
val search : t -> string -> (int * int) list

val count : t -> string -> int
val extract : t -> doc:int -> off:int -> len:int -> string option

(** Naive model of the fully-dynamic binary relation / digraph: a flat
    set of (object, label) -- equivalently (source, target) -- pairs. *)
module Rel : sig
  type r

  val create : unit -> r

  (** [false] if the pair is already present, mirroring
      [Dsdg_binrel.Dyn_binrel.add]. *)
  val add : r -> int -> int -> bool

  val remove : r -> int -> int -> bool
  val related : r -> int -> int -> bool
  val size : r -> int

  (** Sorted label / object lists. *)
  val labels_of_object : r -> int -> int list

  val objects_of_label : r -> int -> int list
  val count_labels_of_object : r -> int -> int
  val count_objects_of_label : r -> int -> int

  (** Every live pair, sorted -- the snapshot the backends'
      [pairs_list] must reproduce byte-for-byte. *)
  val pairs : r -> (int * int) list
end
