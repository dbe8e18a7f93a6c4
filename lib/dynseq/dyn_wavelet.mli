(** Dynamic wavelet tree over [[0, sigma)]: access / rank / select /
    insert / delete in O(log n log sigma). Baseline substrate. *)

type t

(** [create ~sigma ()] is an empty tree; every node's bitvector is an
    {!Spsi}. *)
val create : sigma:int -> unit -> t

val length : t -> int
val sigma : t -> int

(** [insert t pos sym] inserts [sym] at position [pos]. *)
val insert : t -> int -> int -> unit

val delete : t -> int -> unit
val access : t -> int -> int

(** Occurrences of [sym] in [[0, pos)]. *)
val rank : t -> int -> int -> int

(** Raises [Not_found] past the last occurrence. *)
val select : t -> int -> int -> int

val count : t -> int -> int

val to_array : t -> int array
val space_bits : t -> int
