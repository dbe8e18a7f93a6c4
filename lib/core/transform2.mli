(** Transformation 2 (Section 3): static index -> fully-dynamic index
    with worst-case update bounds.

    On top of Transformation 1's layout: locked copies L_j that keep
    answering queries during merges, background construction of the new
    sub-collections (cooperative Incremental jobs when [jobs = 0],
    domain-pool workers when [jobs >= 1]), single-document Temp indexes
    so new text is queryable immediately, and top collections cleaned by
    the Dietz-Sleator schedule.

    Every successful update also publishes an immutable [view]
    through an atomic epoch pointer, so queries can run on other domains
    against the latest snapshot while the single writer keeps mutating
    (see DESIGN.md section 9). *)

(** Deliberate scheduling defects, injectable for differential-checker
    self-tests. [`Skip_top_clean] disables Dietz-Sleator top cleaning;
    [`Worker_crash] (pooled mode) crashes every worker job and breaks
    the recovery so documents are lost; [`Stale_epoch] makes successful
    deletes skip the epoch publication, so the write plane stays correct
    while published views serve stale data -- only a concurrent-reader
    oracle can catch it. *)
type fault = [ `Skip_top_clean | `Worker_crash | `Stale_epoch ]

(** Read-only snapshot of the scheduling counters. *)
type stats = {
  jobs_started : int;
  jobs_completed : int;
  forced : int;
  restructures : int;
  top_cleanings : int;
  sync_merges : int;
  max_job_step : int; (* largest single-update job work, for the worst-case claim *)
  crash_fallbacks : int; (* pooled jobs that failed and were rebuilt synchronously *)
}

module Make (I : Static_index.S) : sig
  type t

  (** Immutable read-plane snapshot: every queryable structure (C0/L0
      buffers, C_j / L_j / Temp_j / T_k) frozen under its census name,
      plus the census scalars. Safe to query from any domain. *)
  type view

  (** [jobs = 0] (default) steps background jobs cooperatively inside
      updates; [jobs >= 1] runs them on a domain-pool executor. *)
  val create :
    ?sample:int ->
    ?tau:int ->
    ?epsilon:float ->
    ?work_factor:int ->
    ?fault:fault ->
    ?jobs:int ->
    unit ->
    t

  (** Returns the fresh document id. *)
  val insert : t -> string -> int

  (** [false] if the document is absent (or already deleted). *)
  val delete : t -> int -> bool

  (** Whether [id] names a live document. O(1). *)
  val mem : t -> int -> bool

  (** Report every surviving occurrence, querying buffers, locked
      copies, Temps and tops (Section 3's query decomposition). *)
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

  (** Scheduling counters (jobs, forced completions, cleanings). *)
  val stats : t -> stats

  (** The instance's observability scope. *)
  val obs : t -> Dsdg_obs.Obs.scope

  (** Recent structural events, newest first. *)
  val events : t -> string list

  (** [`Sync] when [jobs = 0], otherwise the executor's mode. *)
  val jobs_mode : t -> [ `Sync | `Pool of int ]

  (** Current nf snapshot and schedule capacity of level [j], for the
      differential checker's invariant oracles. *)
  val nf : t -> int

  (** Schedule capacity of level [j] under the current [nf]. *)
  val level_capacity : t -> int -> int

  (** Deleted symbols since the last cleaning dispatch, and the
      Dietz-Sleator period delta = nf/(2 tau lg tau). *)
  val clean_schedule : t -> int * int

  (** Census of all structures as [(name, live, dead)]: the measured
      counterpart of Figure 2. *)
  val census : t -> (string * int * int) list

  (** Space per structure, for the nHk + o(n) accounting. *)
  val space_census : t -> (string * int) list

  (** Background construction jobs currently in flight. *)
  val pending_jobs : t -> int

  (** Land every in-flight job now (each counts as a forced completion).
      Publishes a fresh epoch only if jobs actually landed. *)
  val drain : t -> unit

  (** Drain, then stop and join the worker domains. The index stays
      fully usable afterwards; new jobs simply run synchronously. *)
  val close : t -> unit

  (** {1 Read plane}

      [view t] is wait-free: one [Atomic.get]. The writer publishes a
      fresh view (epoch + 1) after every successful update (and after a
      [drain] that landed jobs), so with a single-threaded writer the
      epoch tracks the number of completed updates. *)

  val view : t -> view

  (** Completed updates when the view was published. *)
  val view_epoch : view -> int

  (** The nf snapshot frozen at publish time. *)
  val view_nf : view -> int

  (** Like [doc_count], frozen at publish time. *)
  val view_doc_count : view -> int

  (** Like [total_symbols], frozen at publish time. *)
  val view_total_symbols : view -> int

  (** Background jobs that were in flight at publish time. *)
  val view_pending_jobs : view -> int

  (** Like [search], against the snapshot. *)
  val view_search : view -> string -> f:(doc:int -> off:int -> unit) -> unit

  (** Like [matches], against the snapshot. *)
  val view_matches : view -> string -> (int * int) list

  (** Like [count], against the snapshot. *)
  val view_count : view -> string -> int

  (** Like [mem], against the snapshot. *)
  val view_mem : view -> int -> bool

  (** Like [extract], against the snapshot. *)
  val view_extract : view -> doc:int -> off:int -> len:int -> string option

  (** Per-structure (name, live, dead) symbol counts frozen at publish
      time. *)
  val view_census : view -> (string * int * int) list

  (** {1 Persistence}

      Hooks for [Dsdg_store]: a dump is the logical state of a published
      epoch -- per-structure resident documents + deletion bit vectors
      under their census names -- from which {!restore} rebuilds an
      equivalent index (same document ids, same query answers, same
      Dietz-Sleator schedule state). *)

  (** The next document id the index would assign. *)
  val next_id : t -> int

  (** Snapshot units of a published epoch under their census names: the
      C0/L0 buffers as frozen live documents (empty deletion bit
      vectors), every semi-static structure ([Cj], [Lj], [Tempj], [Tk])
      as resident documents + deletion bit vector. Immutable inputs only
      -- safe to call (and serialize from) a checkpoint worker domain. *)
  val view_components : view -> (string * (int * string) array * bool array) list

  (** Inverse of {!view_components}. Canonical structures ([C0], [Cj],
      [Tk]) are rebuilt exactly where the dump says they lived; a locked
      copy or staging area ([L0]/[Lj]/[Tempj]) marks a rebuild job that
      died with the process, so its live documents are folded into fresh
      top collections (the job's work completed eagerly). [nf] and
      [del_counter] restore the schedule state verbatim; the first
      published view continues [epoch]. Raises [Invalid_argument] on an
      unrecognized component name. O(n) index construction.

      [tail] marks a folded WAL tail with at least one successful
      mutation, whose deletes are already in [components], [next_id],
      [del_counter] and [epoch]; it lists the tail's surviving inserts
      in id order. They go to C0 as one batch if they fit, else into
      fresh tops. Then one restructure runs if the live size left
      [[nf/2, 2 nf]]; otherwise, if [del_counter] reached the cleaning
      period, the top with the most dead symbols is cleaned once. *)
  val restore :
    ?sample:int ->
    ?tau:int ->
    ?epsilon:float ->
    ?work_factor:int ->
    ?fault:fault ->
    ?jobs:int ->
    next_id:int ->
    nf:int ->
    del_counter:int ->
    epoch:int ->
    components:(string * (int * string) array * bool array) list ->
    ?tail:(int * string) list ->
    unit ->
    t
end
