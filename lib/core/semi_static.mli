(** Semi-static deletion-only index (Section 2, first half): a static
    index augmented with a Reporter (Lemma 3) over suffix-array rows, the
    Reporter's integrated counter (Theorem 1), document liveness
    bookkeeping and the n/tau purge threshold.

    The only post-build mutation is [delete]; when dead symbols
    exceed live/tau the owner is expected to rebuild (see
    [needs_purge]) -- this module never rebuilds itself. *)

(** The n/tau purge rule as a standalone predicate, computed in division
    form so [dead * tau] cannot overflow near [max_int]. *)
val purge_threshold_exceeded : dead_syms:int -> total_symbols:int -> tau:int -> bool

module Make (I : Static_index.S) : sig
  type t

  (** [build ~sample ~tau docs] indexes [(id, text)] pairs in ascending
      id order (a sorted copy of [docs]), so the id table alone maps ids
      to slots by binary search. The table holds each id as its offset
      from the smallest, packed at the width the largest offset needs
      (whole words only when the ids span more than 62 bits). Raises
      [Invalid_argument] on duplicate ids or [tau < 1]. [tick] is called
      once per O(1) construction work. *)
  val build :
    ?tick:(unit -> unit) ->
    sample:int ->
    tau:int ->
    (int * string) array ->
    t

  (** [false] for dead or absent documents. *)
  val mem : t -> int -> bool

  (** Symbols of live documents, separators included. O(1). *)
  val live_symbols : t -> int

  (** Symbols of lazily-deleted documents still resident. O(1). *)
  val dead_symbols : t -> int

  (** [live_symbols + dead_symbols] -- the built size. O(1). *)
  val total_symbols : t -> int

  (** Live documents. O(resident documents / 62): counts the dead
      bits. *)
  val doc_count : t -> int

  (** Whether dead symbols exceed the n/tau threshold. *)
  val needs_purge : t -> bool

  (** No live documents left. *)
  val is_empty : t -> bool

  (** Lazy deletion: zeroes the document's rows; [false] if absent or
      already dead. *)
  val delete : t -> int -> bool

  (** Report (doc, off) for every surviving occurrence of [p]. *)
  val search : t -> string -> f:(doc:int -> off:int -> unit) -> unit

  (** Count surviving occurrences in O(trange + log n) (Theorem 1). *)
  val count : t -> string -> int

  (** Substring of a live document; [None] if dead/absent/out of range. *)
  val extract : t -> doc:int -> off:int -> len:int -> string option

  (** Length of a live document; [None] if dead or absent. *)
  val doc_len : t -> int -> int option

  (** Live documents, in ascending id order, read back from the index by one
      bulk inversion ({!Static_index.S.docs}) that decodes every resident
      document, live and dead; [tick] is charged O(1) times per decoded
      symbol. *)
  val live_docs : ?tick:(unit -> unit) -> t -> (int * string) list

  (** Measured bits, as the heap holds them: static index + Reporter +
      packed ids + dead bits + the record. *)
  val space_bits : t -> int

  (** The wrapped static index (shared, immutable). *)
  val index : t -> I.t

  (** {1 Read plane} *)

  (** The frozen structure as a read-plane component, safe to query
      from any domain while the write plane keeps deleting. Cached
      between deletes; a miss costs one Reporter + dead-bit copy,
      amortized against the deletes that invalidated it. *)
  val snapshot : t -> Epoch_view.component
end
