(** SPSI-style dynamic bit vector: insert / delete / rank / select in
    O(log n) with cache-friendly constants.

    A B-tree of high-fanout internal nodes caching (subtree length,
    subtree popcount) in flat arrays, over word-packed leaves of several
    hundred bits — the layout of Prezza's DYNAMIC and Nishimoto's
    B-tree_plus_alpha. Every operation raises [Invalid_argument] on an
    out-of-range index; updates mutate in place. *)

type t

val create : unit -> t
val len : t -> int
val ones : t -> int
val zeros : t -> int
val get : t -> int -> bool
val set : t -> int -> bool -> unit

(** [insert t i b] inserts bit [b] at position [i], shifting the
    suffix. *)
val insert : t -> int -> bool -> unit

(** [delete t i] removes bit [i]. *)
val delete : t -> int -> unit

(** Ones in positions [[0, i)]. *)
val rank1 : t -> int -> int

val rank0 : t -> int -> int

(** Position of the [k]-th one (0-based); raises [Invalid_argument] out
    of range. *)
val select1 : t -> int -> int

(** Position of the [k]-th zero; raises [Invalid_argument] out of range. *)
val select0 : t -> int -> int

val push_back : t -> bool -> unit
val to_bools : t -> bool list

(** Leaf payload words, counter arrays and headers, in 62-bit words. *)
val space_bits : t -> int

(**/**)

(** Internal geometry, exposed for the conformance suite's boundary
    cases. *)

val leaf_max : int

val fanout : int
