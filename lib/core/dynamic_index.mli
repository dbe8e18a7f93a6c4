(** Dynamic compressed document index: the library's front door.

    A changing collection of documents supporting pattern search,
    counting, substring extraction, insertion and deletion -- the
    paper's "library management" problem, with the dynamization strategy
    and the static backend pluggable at creation time. *)

(** Dynamization strategy ({!Index_config.variant}). *)
type variant = Index_config.variant = Amortized | Amortized_loglog | Worst_case

(** Static index plugged into the transformation ({!Index_config.backend}). *)
type backend = Index_config.backend = Fm | Plain_sa | Csa

type t

(** [create ~index ()] builds an empty index with the settings of
    [index] (default {!Index_config.default}: [Worst_case] over [Fm]);
    raises [Invalid_argument] if {!Index_config.validate} rejects them.

    [jobs = 0] is the deterministic Sync mode (rebuild jobs stepped
    cooperatively inside updates); [jobs >= 1] spawns worker domains
    ({!Dsdg_exec.Executor}) that run [Worst_case] rebuild jobs off the
    update path, with results installed at exactly the paper's install
    points (the amortized variants rebuild inline and ignore [jobs]).
    [readers >= 1] spawns domains that serve {!query} calls
    against the latest published {!view} while updates stay exclusive on
    the caller's domain. Call {!close} when done with a pooled index.
    [retain_epochs = n] keeps the [n] most recently published views
    resolvable by {!view_at} / [query ~epoch]. *)
val create : ?index:Index_config.t -> unit -> t

(** [insert t text] adds a document and returns its id. *)
val insert : t -> string -> int

(** [delete t id]; [false] if no such live document. *)
val delete : t -> int -> bool

(** {1 Queries}

    Each query below is its [view_*] counterpart applied to the latest
    published {!view}: there is one query path, and it reads the read
    plane. *)

(** Whether [id] names a live document: asks each structure of the
    view. *)
val mem : t -> int -> bool

(** All (document, offset) occurrences, sorted. Raises
    [Invalid_argument] on the empty pattern (uniformly across variants
    and backends; under the paper's occurrence definition [""] would
    degenerately match every position). *)
val search : t -> string -> (int * int) list

(** Same occurrences as {!search}, streamed. Raises [Invalid_argument]
    on the empty pattern. *)
val iter_matches : t -> string -> f:(doc:int -> off:int -> unit) -> unit

(** Number of occurrences; cheaper than reporting (Theorem 1). Raises
    [Invalid_argument] on the empty pattern. *)
val count : t -> string -> int

(** Substring of a live document; [None] if the document is dead or the
    range is invalid. [len = 0] is uniformly [Some ""] for a live
    document and [None] otherwise, regardless of [off] and of which
    sub-collection (including a locked [L_j] mid-rebuild) holds the
    document. *)
val extract : t -> doc:int -> off:int -> len:int -> string option

(** Number of live documents. *)
val doc_count : t -> int

(** Live symbols including one separator per document. *)
val total_symbols : t -> int

(** Measured space of all live structures. *)
val space_bits : t -> int

(** e.g. ["transform2/fm"]. *)
val describe : t -> string

(** The underlying transformation's observability scope: counters
    (inserts, deletes, merges/purges or jobs/forced), latency and
    dead-fraction histograms, and the structural event ring. See
    {!Dsdg_obs.Obs} and the "Observability" section of DESIGN.md. *)
val obs_scope : t -> Dsdg_obs.Obs.scope

(** Human-readable recent structural events, newest first. *)
val events : t -> string list

(** Read-only structural snapshot for invariant checking (consumed by
    the differential-checking oracles in [Dsdg_check.Oracle]); the
    fields are documented at {!Dynamization.probe}. *)
type probe = Dynamization.probe = {
  pr_census : (string * int * int) list;
  pr_capacity : int -> int;
  pr_nf : int;
  pr_tau : int;
  pr_pending_jobs : int;
  pr_jobs : (int * int * int) option;
  pr_clean : (int * int) option;
}

(** Capture the current structural state as a {!probe}. *)
val probe : t -> probe

(** {1 Read plane}

    Every successful update publishes an immutable snapshot of the whole
    index through an atomic epoch pointer. [view t] fetches the latest
    one -- a single [Atomic.get], no allocation -- and the snapshot can
    then be queried from any domain, without synchronization, while the
    writer keeps mutating. See DESIGN.md section 9. *)

(** An immutable point-in-time snapshot of the index: the engine's
    published {!Epoch_view.t}, the same type under every variant and
    backend. Queries on a view follow the conventions documented at
    {!search} and {!extract} (empty-pattern rejection, [len = 0]
    extraction). *)
type view

(** The latest published snapshot: one [Atomic.get], wait-free. *)
val view : t -> view

(** Number of completed updates when the view was published (0 = the
    empty index; with a single-threaded writer, epoch [e] is the state
    after exactly [e] successful updates). *)
val view_epoch : view -> int

(** Live documents at publish time. *)
val view_doc_count : view -> int

(** Live symbols (one separator per document) at publish time. *)
val view_total_symbols : view -> int

(** Per-structure [(name, live, dead)] symbol counts at publish time,
    built on demand from the view's components; the same names, in the
    same order, as {!probe}'s census of that state. *)
val view_census : view -> (string * int * int) list

(** Liveness at publish time, like {!mem}. *)
val view_mem : view -> int -> bool

(** All (document, offset) occurrences, sorted. *)
val view_search : view -> string -> (int * int) list

(** Streamed occurrences, like {!iter_matches}. *)
val view_iter_matches : view -> string -> f:(doc:int -> off:int -> unit) -> unit

(** Occurrence count, like {!count}. *)
val view_count : view -> string -> int

(** Substring extraction, like {!extract}. *)
val view_extract : view -> doc:int -> off:int -> len:int -> string option

(** Size of the reader pool ([0] when queries run on the caller's
    domain). *)
val readers : t -> int

(** [query t f] runs [f] against the latest published view -- on a
    reader-pool domain when the index was created with [readers >= 1],
    inline otherwise. The view is fetched on the serving domain, so a
    pooled query sees the epoch current when it actually runs. With
    [~epoch], [f] instead runs against the retained or pinned view of
    that epoch ({!view_at}); [Invalid_argument] if the epoch is neither
    the live one, in the retention ring, nor pinned. Exceptions from
    [f] are re-raised on the caller. *)
val query : ?epoch:int -> t -> (view -> 'a) -> 'a

(** {1 Epoch retention and pinning}

    With [retain_epochs = n] in the index config, the [n] most recently published
    views are kept in an immutable ring (one [Atomic.set] per update on
    the writer; wait-free [Atomic.get] resolution on any domain), so
    recent epochs can be named by point-in-time queries. A {!pin}
    additionally shields one view from ring eviction until {!unpin} --
    the mechanism behind consistent backups taken while the writer
    proceeds. *)

(** The [retain_epochs] setting this instance was created with. *)
val retain_epochs : t -> int

(** Resolve an epoch: the live view, the retention ring, then the pin
    table. [None] if the epoch is no longer (or not yet) resolvable. *)
val view_at : t -> epoch:int -> view option

(** Epochs currently resolvable by {!view_at}, ascending (live view +
    ring + pins). *)
val retained : t -> int list

(** A pinned view: survives retention eviction until {!unpin}. *)
type pin

(** Pin the current view (or, with [~epoch], a retained one --
    [Invalid_argument] if it is not resolvable). Call on the writer
    thread; the pin table is published for wait-free readers but
    mutated single-threaded. *)
val pin : ?epoch:int -> t -> pin

(** The pinned view itself (immutable, query from any domain). *)
val pin_view : pin -> view

(** Epoch of the pinned view. *)
val pin_epoch : pin -> int

(** Release a pin (idempotent). *)
val unpin : t -> pin -> unit

(** Live pins on this instance. *)
val pinned_count : t -> int

(** {1 Persistence}

    Hooks consumed by [Dsdg_store]. A {!dump} is flat: the live
    documents of one published epoch plus the shape, the epoch and the
    next id. It records no component layout, no deletion bits and no
    schedule state, and derived structures (suffix arrays, BWTs,
    wavelet trees, Reporters) are never in it: {!restore} places the
    documents the way a restructure does. A checkpoint does not build
    its dump by reading the index: it folds the WAL records logged since
    the previous snapshot into that snapshot ({!fold_tail}). See
    DESIGN.md section 10. *)

(** The dump of one epoch; the fields are documented at
    {!Dynamization.dump}. *)
type dump = Dynamization.dump = {
  dm_variant : variant;
  dm_backend : backend;
  dm_sample : int;
  dm_tau : int;
  dm_epoch : int;
  dm_next_id : int;
  dm_docs : (int * string) array;
}

(** The id the next {!insert} gets (the latest view's). O(1). *)
val next_id : t -> int

(** Epochs {!drain} published without an update since this instance
    was created or restored: the latest view's epoch minus these is the
    number of successful updates past the starting epoch. *)
val drain_epochs : t -> int

(** [view_dump t v] is the dump of view [v] (with [t]'s shape): every
    live document, decoded from [v]'s immutable components by bulk
    inversion, so it may run on any domain. O(n). This is the only
    dump that reads an index. *)
val view_dump : t -> view -> dump

(** [view_dump t (view t)]. *)
val dump : t -> dump

(** A logged mutation, as recovery and checkpoints read it from the WAL. *)
type mutation = Insert of string | Delete of int

(** The dump of an empty index with [index]'s shape: what recovery
    restores from when a store holds a WAL but no snapshot. *)
val empty_dump : Index_config.t -> dump

(** [fold_tail d tail] is [d] after the mutations [tail] (in log order),
    reduced to their net effect without building anything: ids go to
    inserts in log order exactly as {!insert} would assign them, a
    delete of a live document (dumped or inserted earlier in [tail])
    drops it, a delete of a dead or unknown id does nothing, and the
    epoch advances by every successful mutation. O(|d| + |tail|). *)
val fold_tail : dump -> mutation list -> dump

(** [restore ?tail d] rebuilds an index from [fold_tail d tail]
    ([tail] defaults to [[]]) as one restructure: Transformation 2
    builds every document into fresh top collections, Transformations 1
    and 3 run one global rebuild. The result answers every query,
    assigns every future id and reports the same epoch as [restore d]
    followed by {!insert}/{!delete} per record, and passes the same
    invariant oracles; its internal layout may differ.

    The dump's shape ([variant], [backend], [sample], [tau]) wins over
    [index]'s; only the runtime fields ([fault], [jobs], [readers],
    [retain_epochs]) are taken from [index], since a dump never records
    them. O(n + tail) index construction. *)
val restore : ?index:Index_config.t -> ?tail:mutation list -> dump -> t

(** Land every in-flight background job now (each counts as a forced
    completion); no-op for the amortized variants. *)
val drain : t -> unit

(** Drain, then stop and join the executor's worker domains (background
    rebuilds and the reader pool alike). Required for a clean exit when
    the index was created with [jobs >= 1] or [readers >= 1]; harmless
    (and idempotent) otherwise. The index stays usable -- subsequent
    rebuilds run inline and queries fall back to the caller's domain. *)
val close : t -> unit
