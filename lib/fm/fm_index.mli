(** FM-index over a document collection: the static compressed index
    plugged into the paper's Transformations.

    Built from the SA-IS suffix array; the BWT lives in a Huffman-shaped
    wavelet tree (~ nH0(BWT) bits); suffix-array sampling at rate
    [sample] gives the s-parameterised trade-off of Table 1:
    locate in O(s) wavelet operations per occurrence, extract in
    O(l + s), suffix-rank (tSA) in O(s). Patterns are byte strings and
    never match across document boundaries. *)

type t

(** [build ~sample docs]. [tick] is called once per O(1) construction
    work (for background rebuilds). *)
val build : ?tick:(unit -> unit) -> sample:int -> string array -> t

val doc_count : t -> int

(** Length of document [d] (excluding its separator). *)
val doc_len : t -> int -> int

(** Total symbols including one separator per document. *)
val total_len : t -> int

(** Suffix-array rows = total_len + 1 (sentinel row). *)
val row_count : t -> int

val sample_rate : t -> int

(** [range t p] is the half-open row range of suffixes starting with
    [p], or [None]. O(|P|) wavelet operations. *)
val range : t -> string -> (int * int) option

val count : t -> string -> int

(** [locate t row] is the (document, offset) of the suffix in [row].
    O(sample) wavelet operations. *)
val locate : t -> int -> int * int

(** Report every occurrence of a pattern. *)
val search : t -> string -> f:(doc:int -> off:int -> unit) -> unit

(** [extract t ~doc ~off ~len] recovers a document substring in
    O(len + sample) wavelet operations. *)
val extract : t -> doc:int -> off:int -> len:int -> string

(** Every document, in order, by one bulk inversion of the BWT: a
    bottom-up wavelet decode into a plain array, one counting pass for
    LF and one walk from the sentinel row. O(n (H0 + 1)) sequential bit
    work, no wavelet rank; a few O(n)-word scratch arrays. [tick] is
    called once per word of each wavelet node, once per row in each of
    the two inversion passes and once per symbol of the split. *)
val docs : ?tick:(unit -> unit) -> t -> string array

(** Row of the suffix starting at [(doc, off)]; tSA = O(sample). *)
val suffix_row : t -> doc:int -> off:int -> int

(** Rows of every suffix of a document including its separator, in
    decreasing position order: one O(sample) anchor walk plus O(1) per
    symbol. The lazy-deletion workhorse. *)
val iter_doc_rows : t -> int -> f:(int -> unit) -> unit

val space_bits : t -> int
