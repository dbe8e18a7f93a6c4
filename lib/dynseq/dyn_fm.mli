(** Baseline dynamic FM-index (Chan-Hon-Lam / Makinen-Navarro style):
    the collection BWT maintained directly in a dynamic wavelet tree.
    Every BWT operation pays the O(log n log sigma) dynamic-rank price
    the paper's Transformations avoid -- this is the Table 2 comparison
    subject. *)

type t

(** An empty index: SPSI bitvectors in the wavelet tree and for the
    sentinel liveness bits, Fenwick symbol counts. *)
val create : unit -> t

val doc_count : t -> int

(** Total symbols including one sentinel per document. *)
val total_symbols : t -> int

val mem : t -> int -> bool

(** [insert t ~doc text]: backward extension of the dynamic BWT,
    O(|text| log n log sigma). Raises [Invalid_argument] on duplicate
    ids. *)
val insert : t -> doc:int -> string -> unit

(** [delete t id]: removes the document's rows; [false] if absent. *)
val delete : t -> int -> bool

(** Backward search: row range of suffixes prefixed by the pattern. *)
val range : t -> string -> (int * int) option

val count : t -> string -> int

(** [locate t row] walks forward to the sentinel block to identify the
    (document, offset); O((len - off) log n log sigma). *)
val locate : t -> int -> int * int

(** All occurrences, sorted. *)
val search : t -> string -> (int * int) list

val space_bits : t -> int
