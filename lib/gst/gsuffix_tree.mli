(** Generalized suffix tree with online (Ukkonen) insertion: the paper's
    uncompressed fully-dynamic buffer C0 (Appendix A.2).

    Insertion of a document is O(|T|) expected; queries report all [occ]
    occurrences in O(|P| + occ) plus dead-leaf filtering. Deletion is
    doc-level lazy with an automatic rebuild once dead symbols outnumber
    live ones, so it is amortized O(1) per symbol. Edge labels hold
    GC-managed handles to their source text and never dangle. *)

type t

val create : unit -> t

(** [insert t ~doc text] adds a document under a caller-chosen unique id.
    Raises [Invalid_argument] on a duplicate id. *)
val insert : t -> doc:int -> string -> unit

(** [delete t doc] lazily removes the document; [false] if absent. *)
val delete : t -> int -> bool

val mem : t -> int -> bool
val get_doc : t -> int -> string option
val doc_count : t -> int
val doc_ids : t -> int list

(** Live symbols, counting one separator per document. *)
val live_symbols : t -> int

val dead_symbols : t -> int

(** [search t p ~f] calls [f] on every occurrence of [p] in live
    documents. *)
val search : t -> string -> f:(doc:int -> off:int -> unit) -> unit

val count : t -> string -> int

(** All occurrences, sorted by (doc, offset). *)
val occurrences : t -> string -> (int * int) list

(** {1 Read-plane views}

    A {!view} is an immutable snapshot of the live documents, safe to
    query from any domain while the tree keeps mutating. The buffer is
    bounded by [2n / log^2 n] symbols, so views answer queries by naive
    scanning within the paper's buffer budget, and the snapshot copy
    amortizes against the update that invalidated it (snapshots are
    cached until the next insert/delete). *)

type view

val snapshot : t -> view
val view_live_symbols : view -> int
val view_dead_symbols : view -> int
val view_mem : view -> int -> bool
val view_get_doc : view -> int -> string option

(** The frozen live documents, sorted by id -- what a view dump reads
    from C0. O(doc_count). *)
val view_docs : view -> (int * string) list

(** Raises [Invalid_argument] on the empty pattern, like tree search. *)
val view_search : view -> string -> f:(doc:int -> off:int -> unit) -> unit

val view_count : view -> string -> int

val space_bits : t -> int
