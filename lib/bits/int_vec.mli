(** Packed vector of fixed-width non-negative integers (width <= 62),
    used for suffix-array samples and other o(n log n)-bit payloads. *)

type t

(** [create ~width n] is a zero-filled vector of [n] [width]-bit cells. *)
val create : width:int -> int -> t

val length : t -> int
val width : t -> int

(** Smallest width (>= 1) able to hold value [v]. *)
val width_for : int -> int

val get : t -> int -> int

(** [get] without the bounds check: [i] must be in [[0, length t)]. *)
val unsafe_get : t -> int -> int

(** [count_le t v] is the number of cells [<= v] of a non-decreasing
    vector: a binary search, O(log length). *)
val count_le : t -> int -> int

(** [set t i v] stores [v]; raises [Invalid_argument] if [v] does not fit
    in the vector's width. *)
val set : t -> int -> int -> unit

(** [set] without the checks: [i] must be in range and [v] in
    [[0, 2^width)]. *)
val unsafe_set : t -> int -> int -> unit

val of_array : width:int -> int array -> t

(** [of_array_auto a] picks the minimal width for the largest element. *)
val of_array_auto : int array -> t

val to_array : t -> int array

(** A copy with its own words. *)
val copy : t -> t

(** Heap footprint: the packed words at [Popcount.word_bits] each, plus
    63 bits per word of record and array headers. *)
val space_bits : t -> int
