(** Dynamic RDF-style triple store (the paper's Section 1 database
    motivation): per-predicate compact digraphs plus subject/object to
    predicate relations. Supports the paper's example queries — all
    triples with a given subject, and all triples with a given subject
    and predicate — under insertions and deletions. *)

type t

(** [create ()] is the empty store. [tau] tunes the lazy-deletion
    schedule of every per-predicate graph and both predicate-link
    relations (see {!Dyn_binrel.create}, which rejects [tau < 1]). *)
val create : ?tau:int -> unit -> t

(** Number of live triples. *)
val triple_count : t -> int

(** Membership test for a triple. *)
val mem : t -> s:int -> p:int -> o:int -> bool

(** [add t ~s ~p ~o]; [false] if present. *)
val add : t -> s:int -> p:int -> o:int -> bool

(** [remove t ~s ~p ~o]; [false] if absent. *)
val remove : t -> s:int -> p:int -> o:int -> bool

(** Sorted predicates under which [s] occurs as a subject. *)
val predicates_of_subject : t -> int -> int list

(** Sorted predicates under which [o] occurs as an object. *)
val predicates_of_object : t -> int -> int list

(** All triples with subject [s] (the paper's first example query). *)
val triples_with_subject : t -> int -> (int * int * int) list

(** All triples with object [o]. *)
val triples_with_object : t -> int -> (int * int * int) list

(** All triples with subject [s] and predicate [p] (the second example
    query). *)
val triples_with_subject_predicate : t -> int -> int -> (int * int * int) list

(** All triples with object [o] and predicate [p]. *)
val triples_with_object_predicate : t -> int -> int -> (int * int * int) list

(** Number of triples with subject [s]. *)
val count_with_subject : t -> int -> int

(** Number of triples with object [o]. *)
val count_with_object : t -> int -> int

(** Number of triples with predicate [p]. *)
val count_with_predicate : t -> int -> int

(** Measured resident size of every graph and relation, in bits. *)
val space_bits : t -> int
