(** The contract a static index must satisfy to be dynamized by the
    Transformations (Section 2): it must be (u(n), w(n))-constructible
    with an interruptible construction ([tick]), answer queries by the
    two-step range-finding/locating method over a suffix-array row
    domain, and recover the rank of any document suffix (tSA) so that
    lazy deletions can mark the right rows.

    Implementations must be immutable after [build]: the read-plane
    snapshots of [Semi_static] share the index by reference across
    reader domains. *)

module type S = sig
  type t

  (** Short backend tag, e.g. ["fm"], used in [describe] strings. *)
  val name : string

  (** Construction; [tick] is called once per O(1) work so the build can
      run inside an Incremental job. [sample] is the space/time
      parameter s. *)
  val build : ?tick:(unit -> unit) -> sample:int -> string array -> t

  (** Number of indexed documents (they are all resident: deletion is
      the wrapping [Semi_static]'s job). *)
  val doc_count : t -> int

  (** Length of document [i] in symbols, separator excluded. O(1). *)
  val doc_len : t -> int -> int

  (** Total symbols including one separator per document. *)
  val total_len : t -> int

  (** Size of the suffix-array row domain ([>= total_len]). *)
  val row_count : t -> int

  (** Range-finding: the half-open row range of suffixes starting with
      the pattern, or [None]. O(trange). *)
  val range : t -> string -> (int * int) option

  (** Locating: row -> (document, offset). O(tlocate). *)
  val locate : t -> int -> int * int

  (** Extraction of a document substring. O(textract). *)
  val extract : t -> doc:int -> off:int -> len:int -> string

  (** Every resident document, in slot order, by one bulk inversion of
      the whole index: O(n) for every backend, far below [n] calls to
      [extract]. Dumps, checkpoints and rebuild jobs read components this
      way. [tick] is called O(1) times per decoded symbol, live and dead,
      so the decode can run inside an Incremental job. *)
  val docs : ?tick:(unit -> unit) -> t -> string array

  (** Rows of every suffix of a document (including its separator), used
      to implement lazy deletion: O(|doc| + tSA) total. *)
  val iter_doc_rows : t -> int -> f:(int -> unit) -> unit

  (** Measured size of every component, in bits (the empirical side of
      the paper's space claims). *)
  val space_bits : t -> int
end
