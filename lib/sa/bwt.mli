(** Burrows-Wheeler transform and LF-mapping utilities. The text
    convention is a unique smallest sentinel 0 at the end. *)

(** [of_sa t sa] is the BWT given the text (with sentinel) and its full
    suffix array. *)
val of_sa : int array -> int array -> int array

(** [with_sentinel s] shifts symbols by +1 and appends the sentinel;
    returns the new text and its alphabet size. *)
val with_sentinel : int array -> int array * int

(** [transform s] is the BWT of an arbitrary non-negative array. *)
val transform : ?tick:(unit -> unit) -> int array -> int array

(** [counts_before bwt sigma] maps each symbol [c] to the number of
    strictly smaller symbols in [bwt] (the C array of FM-indexes). *)
val counts_before : int array -> int -> int array

(** [invert bwt] is the text (sentinel dropped) whose BWT is [bwt], for
    any text ending in a unique smallest sentinel 0: one counting pass
    for LF, one walk from the sentinel row. O(n). [tick] is called once
    per row in each pass. *)
val invert : ?tick:(unit -> unit) -> int array -> int array

(** Invert a BWT produced by {!transform}. O(n). *)
val inverse : int array -> int array
