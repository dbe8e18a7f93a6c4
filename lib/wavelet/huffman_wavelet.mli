(** Huffman-shaped wavelet tree: total bit-vector length n (H0 + 1), the
    zero-order compressed sequence representation backing the FM-index
    BWT and the binary-relation string S (Section 5). Same interface as
    {!Wavelet_tree} with per-operation cost proportional to the symbol's
    code length. *)

type t

(** Raises [Invalid_argument] for a symbol outside [[0, sigma)] or for
    [sigma > 2^31]. *)
val build : ?tick:(unit -> unit) -> sigma:int -> int array -> t
val length : t -> int
val sigma : t -> int

(** Number of distinct symbols in the sequence. *)
val present : t -> int

(** [slot t c] is 1 + the number of present symbols smaller than [c] if
    [c] occurs in the sequence, else 0: a dense index for tables sized
    to the symbols present rather than to [sigma]. *)
val slot : t -> int -> int

val access : t -> int -> int

(** [access_rank t i] is [(c, rank t c i)] for [c = access t i], from
    one root-to-leaf descent instead of two. The FM-index extract
    step. *)
val access_rank : t -> int -> int * int

(** [access_slot_rank t i] is [(slot t c, rank t c i)] for
    [c = access t i], from the same one descent: the LF step of an
    index whose tables are sized to the present symbols. *)
val access_slot_rank : t -> int -> int * int

(** [rank t c i]: occurrences of [c] in [[0, i)]; 0 for symbols that do
    not occur in the sequence. *)
val rank : t -> int -> int -> int

(** Raises [Not_found] past the last occurrence (or for absent
    symbols). *)
val select : t -> int -> int -> int

val rank_range : t -> int -> int -> int -> int
val count : t -> int -> int
val space_bits : t -> int

(** The whole sequence, decoded bottom-up with one sequential pass per
    bit vector and no rank: O(n (H0 + 1)) bit operations. [tick] is
    called once per word of every node's bit vector. *)
val to_array : ?tick:(unit -> unit) -> t -> int array

(** Every internal node's bit-vector words, rank directory and count of
    1-bits, in pre-order (left child before right). Exposed so a test can
    hold {!build} to a per-bit reference construction. *)
val nodes : t -> (int array * int array * int) list
