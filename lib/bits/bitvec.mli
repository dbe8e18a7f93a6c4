(** Fixed-length mutable bit vector over 62-bit words.

    This is the raw storage primitive for every succinct structure in the
    library; rank/select directories are layered on top by
    {!Rank_select}. *)

type t

(** [create n] is an all-zero bit vector of length [n]. *)
val create : int -> t

(** [create_full n] is an all-one bit vector of length [n]. *)
val create_full : int -> t

(** [init n f] sets bit [i] to [f i]. *)
val init : int -> (int -> bool) -> t

(** Number of bits. *)
val length : t -> int

(** [get t i] is bit [i]. Raises [Invalid_argument] out of bounds. *)
val get : t -> int -> bool

(** [get] without the bounds check. *)
val unsafe_get : t -> int -> bool

(** [set t i] sets bit [i] to one. *)
val set : t -> int -> unit

(** [clear t i] sets bit [i] to zero. *)
val clear : t -> int -> unit

(** [set_to t i b] writes [b] into bit [i]. *)
val set_to : t -> int -> bool -> unit

(** Set every bit to one. *)
val fill_ones : t -> unit

(** Number of one bits (popcount over all words). *)
val count : t -> int

(** Number of backing words; for rank/select directories. *)
val num_words : t -> int

(** [word t j] is the [j]-th backing word (62 valid bits). *)
val word : t -> int -> int

(** The backing words themselves, shared: read-only once a directory
    is built over them. Bits past [length] are zero. *)
val words : t -> int array

(** Valid-bit mask of word [j]; the last word may be partial. *)
val word_mask : t -> int -> int

val copy : t -> t
val equal : t -> t -> bool

(** [iter_ones f t] calls [f] on each set position in increasing order. *)
val iter_ones : (int -> unit) -> t -> unit

(** Measured size in bits, including bookkeeping. *)
val space_bits : t -> int

val of_bools : bool list -> t
val to_bools : t -> bool list
val pp : Format.formatter -> t -> unit
