(** The uncompressed buffer C0 (and its locked copy L0): a plain table
    of the few documents (at most 2n / log^2 n symbols) not yet in a
    compressed sub-collection.

    The paper keeps C0 as a generalized suffix tree (Section 2,
    Appendix A.2). Here it is one immutable [id -> text] map behind a
    mutable field, and queries scan it: O(|C0|) per pattern instead of
    O(|P| + occ), a recorded deviation (DESIGN.md section 2). Deletion
    is eager, so the buffer never holds dead symbols. *)

type t

val create : unit -> t

(** [insert t ~doc text] adds a document under a caller-chosen unique
    id. Raises [Invalid_argument] on a duplicate id. *)
val insert : t -> doc:int -> string -> unit

(** [delete t doc] removes the document at once; [false] (and no
    change) if absent. *)
val delete : t -> int -> bool

val find : t -> int -> string option

(** Live symbols, one separator per document. O(1). *)
val live_symbols : t -> int

(** The documents, ascending ids. [tick] is called once per symbol and
    once per document, so a rebuild job can read the buffer inside its
    work budget. *)
val docs : ?tick:(unit -> unit) -> t -> (int * string) list

(** Map nodes, string blocks and the record, in bits: never less than
    the heap the buffer holds. *)
val space_bits : t -> int

(** The current contents as a read-plane component (dead = 0). It
    closes over the immutable map, so any domain may query it while
    the buffer keeps changing. Cached until the next insert or delete.
    Its [search] raises [Invalid_argument] on the empty pattern. *)
val snapshot : t -> Epoch_view.component
