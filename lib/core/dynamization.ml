(** What a dynamization of a static index provides: the signature that
    [Transform1.Make (I)] (Transformations 1 and 3, Section 2 and
    Appendix A.4) and [Transform2.Make (I)] (Transformation 2, Section 3)
    share, so [Dynamic_index] wires any variant over any backend through
    one module type.

    Every completed update publishes one {!Epoch_view.t} through an
    atomic epoch pointer, so queries can run on other domains against
    the latest snapshot while the single writer keeps mutating (see
    DESIGN.md section 9). The read plane is not per transformation:
    each one lists its frozen structures and {!Epoch_view} answers. *)

(** Read-only structural snapshot for the invariant oracles in
    [Dsdg_check]. *)
type probe = {
  pr_census : (string * int * int) list;
      (** per-structure [(name, live, dead)] symbol counts; names follow
          the paper's Figure 2: ["C0"], ["C3"], ["L2"], ["Temp4"],
          ["T7"]. *)
  pr_capacity : int -> int;
      (** level [j] -> the schedule's max size under the current [nf]
          snapshot ([2 nf / log^2 nf * log^(eps j) nf] for the geometric
          schedule). *)
  pr_nf : int;  (** the current global size snapshot nf *)
  pr_tau : int;  (** lazy-deletion threshold the instance was built with *)
  pr_pending_jobs : int;
      (** background construction jobs in flight; always [0] for the
          amortized variants. *)
  pr_jobs : (int * int * int) option;
      (** [Worst_case] only: [(jobs_started, jobs_completed, forced)]. *)
  pr_clean : (int * int) option;
      (** [Worst_case] only: [(deleted symbols since the last
          Dietz-Sleator top-cleaning dispatch, period delta)]. The
          schedule keeps the counter below twice the period. *)
}

(** The logical state of one published epoch: per-structure resident
    documents and deletion bit vectors under their census names, plus
    the scalars that are not derivable from them. Derived structures
    (suffix arrays, BWTs, wavelet trees, Reporters) are deliberately
    absent: they are deterministic functions of the components. *)
type dump = {
  dm_variant : Index_config.variant;
  dm_backend : Index_config.backend;
  dm_sample : int;
  dm_tau : int;
  dm_epoch : int;  (** completed updates at capture time *)
  dm_next_id : int;  (** next document id the index would assign *)
  dm_nf : int;  (** global size snapshot nf (schedule state) *)
  dm_del_counter : int;
      (** Dietz-Sleator cleaning counter ([Worst_case] only; [0]
          otherwise) *)
  dm_components : (string * (int * string) array * bool array) list;
      (** per-structure (census name, resident docs, deletion bit
          vector) *)
}

(** {1 Reading a dump} (shared by both [restore]s) *)

(** Symbols of [docs], one separator per document. *)
let syms docs = List.fold_left (fun a (_, s) -> a + String.length s + 1) 0 docs

(** The live documents of one dumped component, in slot order; a buffer
    dumps no bit vector (every document live). *)
let live_docs (docs : (int * string) array) (dead : bool array) =
  List.filteri (fun i _ -> i >= Array.length dead || not dead.(i)) (Array.to_list docs)

(** Whether [docs] (every live document after a folded WAL tail) lies
    outside [[nf/2, 2 nf]]: the case in which [restore] goes straight to
    one global rebuild. *)
let out_of_range ~nf docs =
  let total = syms docs in
  total > 2 * nf || (2 * total < nf && nf > 256)

module type S = sig
  type t

  (** An empty index with [config]'s [variant] (Transformation 1 picks
      its schedule from it), [sample], [tau], [fault] and [jobs]; the
      caller validates [config]. [jobs >= 1] attaches a worker pool that
      runs rebuild constructions off the update path. *)
  val create : Index_config.t -> t

  (** Inverse of {!Epoch_view.components}: rebuild every structure where the
      dump says it lived, restore [nf], the id counter and the cleaning
      counter, and publish a first view continuing [dm_epoch]. Raises
      [Invalid_argument] on a component name the transformation does
      not know. O(n) index construction. The dump's [sample] and [tau]
      are already in [config]. A Transformation 2 locked copy or staging
      area ([L0], [Lj], [Tempj]) marks a rebuild job that died with the
      process: its live documents are folded into fresh top collections.

      [tail] marks a folded WAL tail with at least one successful
      mutation, whose deletes are already in the dump; it lists the
      tail's surviving inserts in id order. They are placed as one batch
      by the transformation's insertion rule, then one global rebuild
      (or restructure) runs if the live size left [[nf/2, 2 nf]]. *)
  val restore : Index_config.t -> ?tail:(int * string) list -> dump -> t

  (** Returns the fresh document id. *)
  val insert : t -> string -> int

  (** [false] if the document is absent (or already deleted). *)
  val delete : t -> int -> bool

  (** Whether [id] names a live document. O(1) for Transformations 1
      and 3; Transformation 2 walks every structure. *)
  val mem : t -> int -> bool

  (** Report every surviving occurrence, querying every structure
      (Lemma 4's query decomposition). *)
  val search : t -> string -> f:(doc:int -> off:int -> unit) -> unit

  (** All [(doc, off)] occurrences, sorted. *)
  val matches : t -> string -> (int * int) list

  (** Occurrence count, summed across structures (Theorem 1). *)
  val count : t -> string -> int

  (** Substring of a live document; [None] if dead or out of range. *)
  val extract : t -> doc:int -> off:int -> len:int -> string option

  (** Live documents across all structures. *)
  val doc_count : t -> int

  (** Live symbols, one separator per document. *)
  val total_symbols : t -> int

  (** Measured bits of every live structure. *)
  val space_bits : t -> int

  (** ["transform1/fm"], ["transform3/sa"], ["transform2/csa"], ... *)
  val describe : t -> string

  (** The instance's observability scope. *)
  val obs : t -> Dsdg_obs.Obs.scope

  (** Recent structural events, newest first. *)
  val events : t -> string list

  (** The current nf snapshot. *)
  val nf : t -> int

  (** Schedule capacity of level [j] under the current [nf]. *)
  val level_capacity : t -> int -> int

  (** Per-structure [(name, live, dead)] symbol counts: the measured
      counterpart of Figures 1 and 2. *)
  val census : t -> (string * int * int) list

  (** The structural state for the invariant oracles. *)
  val probe : t -> probe

  (** The next document id the index would assign. *)
  val next_id : t -> int

  (** Land every in-flight background job now (each counts as a forced
      completion); a fresh epoch is published only if jobs landed.
      No-op for Transformations 1 and 3. *)
  val drain : t -> unit

  (** Drain, then stop and join the worker domains (no-op without a
      pool). The index stays usable; rebuilds then run inline. *)
  val close : t -> unit

  (** The latest published epoch ({!Epoch_view}): one [Atomic.get].
      The writer publishes a fresh view (epoch + 1) after every
      successful update, so with a single-threaded writer the epoch
      equals the number of completed updates. *)
  val view : t -> Epoch_view.t
end
