(** Transformation 1 (Section 2): static index -> fully-dynamic index
    with amortized update bounds.

    The collection is split into C0 (an uncompressed generalized suffix
    tree) and sub-collections C1..Cr held in semi-static deletion-only
    indexes whose maximum sizes follow a pluggable growth schedule:
    {!geometric} is the paper's Transformation 1, {!doubling} is
    Transformation 3 from Appendix A.4.

    Every completed update additionally publishes an immutable
    [view] through an atomic epoch pointer, so queries can run on
    other domains against the latest snapshot while the single writer
    keeps mutating (see DESIGN.md section 9). *)

(** Growth schedule for the sub-collection capacities. Construct with
    {!geometric} or {!doubling}. *)
type schedule

(** The paper's Transformation 1: max_j = 2(nf/log^2 nf) log^(eps*j) nf,
    O(1) sub-collections. *)
val geometric : ?epsilon:float -> unit -> schedule

(** Transformation 3 (Appendix A.4): capacities double per level,
    O(log log n) sub-collections. *)
val doubling : unit -> schedule

(** Read-only snapshot of the amortization counters. *)
type stats = {
  merges : int;
  purges : int;
  global_rebuilds : int;
  symbols_rebuilt : int;
}

module Make (I : Static_index.S) : sig
  type t

  (** Immutable read-plane snapshot of the whole index: the C0 buffer
      frozen as a GST view, every sub-collection as a semi-static view,
      plus the census scalars. Safe to query from any domain. *)
  type view

  (** [jobs > 0] attaches a worker pool that runs purge / global-rebuild
      index constructions off-thread. *)
  val create :
    ?schedule:schedule ->
    ?sample:int ->
    ?tau:int ->
    ?jobs:int ->
    unit ->
    t

  (** Returns the fresh document id. *)
  val insert : t -> string -> int

  (** [false] if the document is absent (or already deleted). *)
  val delete : t -> int -> bool

  (** Whether [id] names a live document. O(1). *)
  val mem : t -> int -> bool

  (** Report every surviving occurrence, querying C0 and each
      sub-collection (Lemma 4's query decomposition). *)
  val search : t -> string -> f:(doc:int -> off:int -> unit) -> unit

  (** All [(doc, off)] occurrences, sorted. *)
  val matches : t -> string -> (int * int) list

  (** Occurrence count, summed across sub-collections (Theorem 1). *)
  val count : t -> string -> int

  (** Substring of a live document; [None] if dead or out of range. *)
  val extract : t -> doc:int -> off:int -> len:int -> string option

  (** Live documents across C0 and all sub-collections. *)
  val doc_count : t -> int

  (** Live symbols, one separator per document. *)
  val total_symbols : t -> int

  (** Measured bits of every live structure. *)
  val space_bits : t -> int

  (** Merge everything into one sub-collection now (an explicit global
      rebuild). *)
  val consolidate : t -> unit

  (** Amortization counters (merges, purges, global rebuilds). *)
  val stats : t -> stats

  (** The instance's observability scope. *)
  val obs : t -> Dsdg_obs.Obs.scope

  (** Recent structural events, newest first. *)
  val events : t -> string list

  (** Current nf snapshot and schedule capacity of level [j], for the
      differential checker's invariant oracles. *)
  val nf : t -> int

  (** Schedule capacity of level [j] under the current [nf]. *)
  val level_capacity : t -> int -> int

  (** ["geometric"] or ["doubling"]. *)
  val schedule_name : t -> string

  (** Live sizes of C0, C1..Cr (the measured counterpart of Figure 1). *)
  val census : t -> (string * int) list

  (** [census] plus dead-symbol counts. *)
  val census_full : t -> (string * int * int) list

  (** Stop and join the worker domains (no-op without a pool); the index
      stays usable, rebuilds simply run inline afterwards. *)
  val close : t -> unit

  (** {1 Read plane}

      [view t] is wait-free: one [Atomic.get]. The writer publishes a
      fresh view (epoch + 1) after every completed update, so with a
      single-threaded writer the epoch equals the number of completed
      updates. *)

  val view : t -> view

  (** Completed updates when the view was published. *)
  val view_epoch : view -> int

  (** The nf snapshot frozen at publish time. *)
  val view_nf : view -> int

  (** Like [doc_count], frozen at publish time. *)
  val view_doc_count : view -> int

  (** Like [total_symbols], frozen at publish time. *)
  val view_total_symbols : view -> int

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
      schedule state). *)

  (** The next document id the index would assign. *)
  val next_id : t -> int

  (** Snapshot units of a published epoch under their census names:
      [("C0", live docs, [||])] plus [("Cj", resident docs, deletion bit
      vector)] per sub-collection. Immutable inputs only -- safe to call
      (and serialize from) a checkpoint worker domain. *)
  val view_components : view -> (string * (int * string) array * bool array) list

  (** Inverse of {!view_components}: rebuild every structure where the
      dump says it lived, restore [nf] and the id counter, and publish a
      first view continuing [epoch]. Raises [Invalid_argument] on a
      component name that is not [C0]/[Cj]. O(n) index construction.

      [tail] marks a folded WAL tail with at least one successful
      mutation, whose deletes are already in [components], [next_id]
      and [epoch]; it lists the tail's surviving inserts in id order.
      Restore places them as one batch by the insertion rule (C0, else
      a merge into the smallest level that holds C0..Cj plus the batch,
      else a global rebuild), then rebuilds globally if the live size
      left [[nf/2, 2 nf]]. *)
  val restore :
    ?schedule:schedule ->
    ?sample:int ->
    ?tau:int ->
    ?jobs:int ->
    next_id:int ->
    nf:int ->
    epoch:int ->
    components:(string * (int * string) array * bool array) list ->
    ?tail:(int * string) list ->
    unit ->
    t
end
