(** The Lemma 2/3 structure: a bit vector supporting [zero] and
    "report all surviving 1-positions in a range in O(1) per result".

    Substitute for the Mortensen-Pagh-Patrascu dynamic range reporting
    structure: a 62-way summary-bitmap hierarchy, giving successor
    queries in O(log_62 n) word probes. Used to filter deleted suffixes
    out of suffix-array ranges (Section 2) and deleted pairs out of
    binary relations (Section 5). *)

type t

(** All bits one. *)
val create_full : int -> t

val of_bitvec : Dsdg_bits.Bitvec.t -> t
val length : t -> int

(** Number of surviving one bits. *)
val ones : t -> int

(** [word t j] holds bits [[62 j, 62 j + 62)], bit [i] of the vector at
    position [i mod 62]: the bulk read, one word per 62 positions. *)
val word : t -> int -> int

val get : t -> int -> bool

(** [zero t i] clears bit [i] (idempotent). O(log_62 n). *)
val zero : t -> int -> unit

(** [next_one t i] is the smallest set position [>= i], or [-1] if
    there is none. Allocates nothing. *)
val next_one : t -> int -> int

(** [report t s e f] calls [f] on every set position in [[s, e)], in
    increasing order; O(1) amortized probes per reported position, and
    no allocation besides what [f] does. *)
val report : t -> int -> int -> (int -> unit) -> unit

(** [count_range t s e] is the number of set positions in [[s, e)];
    O(log n) via a word-granular Fenwick tree (Theorem 1's counting),
    whose counts take [log2 length + 2] bits per 62 positions. *)
val count_range : t -> int -> int -> int

val to_list : t -> int list

(** Deep copy (pyramid + Fenwick), O(length/62) words; used when
    publishing read-plane snapshots. *)
val copy : t -> t

(** Heap footprint: summary words, headers and the packed counts. *)
val space_bits : t -> int
