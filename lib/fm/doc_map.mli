(** Mapping between global positions of a separator-joined document
    concatenation and (document, offset) pairs. *)

(** The symbol mapping of every static index over a concatenation:
    0 is the sentinel, [sep] the document separator, and character [c]
    is [Char.code c + 2], so patterns never match across documents. *)
val sep : int

val sym_of_char : char -> int
val char_of_sym : int -> char

type t

(** [of_lengths lens]: document [d] owns the half-open global range
    starting at the sum of earlier lengths+1, its separator last. *)
val of_lengths : int array -> t

val doc_count : t -> int

(** Total symbols including one separator per document. *)
val total_len : t -> int

val doc_start : t -> int -> int
val doc_len : t -> int -> int

(** Global position -> (document, offset); the offset equals the
    document length when the position is its separator. A binary
    search over the document starts, which are packed at the width of
    the total length. *)
val locate : t -> int -> int * int

(** [split t text] is every document of the concatenation [text], in
    order. [text] holds mapped symbols ({!sym_of_char}) and is at least
    [total_len t] long; separators are skipped. [tick] is called once
    per symbol, separators included. *)
val split : ?tick:(unit -> unit) -> t -> int array -> string array

(** Heap footprint: the packed starts and the record. *)
val space_bits : t -> int
