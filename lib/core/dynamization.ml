(** What a dynamization of a static index provides: the signature that
    [Transform1.Make (I)] (Transformations 1 and 3, Section 2 and
    Appendix A.4) and [Transform2.Make (I)] (Transformation 2, Section 3)
    share, so [Dynamic_index] wires any variant over any backend through
    one module type.

    Every completed update publishes one {!Epoch_view.t} through an
    atomic epoch pointer, so queries can run on other domains against
    the latest snapshot while the single writer keeps mutating (see
    DESIGN.md section 9). Every query reads that view: a transformation
    declares no query of its own, it lists its frozen structures and
    {!Epoch_view} answers. *)

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

(** The logical state of one published epoch, flat: its live
    documents in id order plus the scalars they do not determine. No
    component layout, no deletion bits and no schedule state: [restore]
    places the documents the way a restructure does. Derived structures
    (suffix arrays, BWTs, wavelet trees, Reporters) are deliberately
    absent: they are deterministic functions of the documents. *)
type dump = {
  dm_variant : Index_config.variant;
  dm_backend : Index_config.backend;
  dm_sample : int;
  dm_tau : int;
  dm_epoch : int;  (** published epoch at capture time *)
  dm_next_id : int;  (** next document id the index would assign *)
  dm_docs : (int * string) array;  (** live [(id, text)], ascending ids *)
}

module type S = sig
  type t

  (** An empty index with [config]'s [variant] (Transformation 1 picks
      its schedule from it), [sample] and [tau]; the caller validates
      [config]. Only Transformation 2 reads [fault] and [jobs]: with
      [jobs >= 1] a worker pool runs its rebuild jobs off the update
      path. *)
  val create : Index_config.t -> t

  (** Rebuild from a flat dump as one restructure: Transformation 2
      puts every document into fresh top collections under [nf] set to
      their size, Transformations 1 and 3 run one global rebuild. The
      id counter comes from the dump, and the first published view
      continues [dm_epoch]. The dump's [sample] and [tau] are already
      in [config]. O(n) index construction. *)
  val restore : Index_config.t -> dump -> t

  (** Returns the fresh document id. *)
  val insert : t -> string -> int

  (** [false] if the document is absent (or already deleted). *)
  val delete : t -> int -> bool

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
