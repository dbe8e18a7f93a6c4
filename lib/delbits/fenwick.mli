(** Fenwick (binary indexed) tree: point update and prefix sum in
    O(log n). Substitute for the Navarro-Sadakane dynamic counting
    structure in Theorem 1 (counting surviving occurrences). *)

type t

(** [create ?width n] is an all-zero tree over [n] cells. Cells must
    stay non-negative: each node, a sum of cells, is stored unsigned in
    [width] bits (1 to 62, default 62), so the total must stay below
    [2^width]. A caller whose total is bounded by [b] passes
    [Int_vec.width_for b]. *)
val create : ?width:int -> int -> t

(** [create_ones n] is pre-filled with 1 in every cell; O(n). *)
val create_ones : int -> t

(** Linear-time construction from initial cell values. *)
val of_array : ?width:int -> int array -> t

val length : t -> int

(** [add t i delta] adds [delta] to cell [i]; the cell must stay
    non-negative. *)
val add : t -> int -> int -> unit

(** [prefix t i] is the sum of cells [[0, i)]. *)
val prefix : t -> int -> int

(** [range t l r] is the sum of cells [[l, r)]. *)
val range : t -> int -> int -> int

val total : t -> int

(** [search t k] is the smallest [i] with [prefix t (i + 1) > k]: the
    cell containing the [k]-th unit of mass. Binary lifting, O(log n).
    Requires non-negative cells and [0 <= k < total t]. *)
val search : t -> int -> int

(** Deep copy, O(n); used when publishing read-plane snapshots. *)
val copy : t -> t

(** Heap footprint: the packed nodes ({!Dsdg_bits.Int_vec.space_bits}). *)
val space_bits : t -> int
