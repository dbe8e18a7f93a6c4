(** Static rank/select directory over a {!Bitvec.t}.

    Superblock counts give [rank] in O(1) word probes; [select] binary
    searches the directory. The underlying bit vector must not be
    mutated after {!build}. *)

type t

(** Build the directory; O(n/w) time, o(n) extra bits. *)
val build : Bitvec.t -> t

(** Number of one bits. *)
val ones : t -> int

(** Number of zero bits. *)
val zeros : t -> int

val get : t -> int -> bool

(** [rank1 t i] is the number of ones in positions [[0, i)]. *)
val rank1 : t -> int -> int

(** [rank0 t i] is the number of zeros in positions [[0, i)]. *)
val rank0 : t -> int -> int

(** [select1 t k] is the position of the [k]-th (0-based) one.
    Raises [Invalid_argument] if [k >= ones t]. *)
val select1 : t -> int -> int

(** [select0 t k] is the position of the [k]-th (0-based) zero. *)
val select0 : t -> int -> int

val space_bits : t -> int

(** {1 Bare directories}

    The same operations over a bit vector's word array ({!Bitvec.words})
    and its directory, for structures that embed both in their own
    records. [super] is [directory words], which is empty for vectors
    of at most one superblock; no bounds are checked. *)

val directory : int array -> int array

(** Bits of a directory, for [space_bits]. *)
val directory_bits : int array -> int

(** Ones in [[0, i)], [0 <= i <= length]. *)
val rank1_in : int array -> int array -> int -> int

(** [2 * rank1 i + bit i] for [0 <= i < length], from one word probe:
    the wavelet-tree descent step. *)
val rank_bit_in : int array -> int array -> int -> int

(** Position of the [k]-th one, [0 <= k < ones]. *)
val select1_in : int array -> int array -> int -> int

(** Position of the [k]-th zero of a [len]-bit vector, [0 <= k < zeros]. *)
val select0_in : int array -> int array -> len:int -> int -> int
