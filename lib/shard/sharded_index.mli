(** Sharded scale-out: one document collection split across K
    {!Dsdg_core.Dynamic_index} shards by arithmetic placement.

    Every shard is a full per-index machine room -- its own writer
    path, executor jobs, reader pool, and (in store mode) its own
    durable directory with snapshot + WAL.  The sharded layer preserves
    the collection's global contract exactly: the k-th insert is
    assigned global document id [k] (the {!Dsdg_check.Model} contract),
    queries answer in global ids, and the empty pattern is uniformly
    rejected -- so a sharded index is byte-identical to the K=1 index
    and to the naive model under the differential runner.

    {2 Placement}

    Global id [g] lives on shard [g mod K] under local id [g / K]; shard
    [s]'s [l]-th insert is global id [l*K + s].  The rule is the whole
    mapping: nothing is logged or looked up to place a document, and a
    document never moves.

    {2 Scatter-gather}

    Doc sets are disjoint by construction, so queries merge trivially:
    [search] translates each shard's sorted hits [(l, off)] to
    [(l*K + s, off)] and merges them; [count] sums the shards' counts;
    [extract]/[mem]/[delete] go to one shard.  Per-shard queries go
    through the epoch-published read plane ([Dynamic_index.query])
    whenever the shards own reader pools.  The {!epoch_vector} is the
    per-shard view epochs -- two equal vectors bracket a consistent
    quiescent snapshot.

    {2 Durability}

    Store mode lays out [dir/shard-0 .. dir/shard-K-1], one
    {!Dsdg_store.Durable} store each, plus a root header [shard.meta]
    (["dsdg-shard 2 K"]) written once when the root is created.  K = 1
    is the single-store layout: the one shard's store is [dir] itself,
    with no header.  A version-1 root (hash placement and a placement
    log) is refused with {!Old_layout} and left untouched.

    Recovery opens the K shard stores independently (in parallel on an
    executor pool).  Every durable document keeps its id, since the id
    is its shard and local id.  The next insert takes the smallest free
    slot [ins_total(s)*K + s] over the shards, where [ins_total(s)] is
    shard [s]'s inserts ever: with every shard's inserts landed that is
    the insert count, and after a crash between shard commits (uneven
    shard tails) the lagging shard absorbs the next inserts, so ids are
    never duplicated.  K = 1 reuses a lost tail's ids the same way.

    Observability lands in the registered scope ["shard"]:
    [inserts]/[deletes] and [scatter_queries] counters, and
    [gather_ns] / [recovery_ns] histograms. *)

type t

exception
  Shard_mismatch of {
    dir : string;
    on_disk : int;  (** shard count recorded in [dir]'s header *)
    requested : int;  (** shard count the caller asked for *)
  }
(** Raised by {!open_store} when an existing store was created with a
    different shard count than the one requested. *)

exception Old_layout of { dir : string; version : int }
(** Raised by {!store_shards} and {!open_store} when [dir] is a sharded
    root of an older layout ([version] 1: hash placement with a
    placement log).  Nothing in [dir] is read beyond the header or
    written. *)

(** {1 Construction} *)

val create : ?index:Dsdg_core.Index_config.t -> shards:int -> unit -> t
(** In-memory sharded index: [shards] independent
    [Dynamic_index.create ~index]d shards (so [jobs] executor workers
    and [readers] reader-pool domains {e each}).  Raises
    [Invalid_argument] when [shards < 1], [index] is invalid, or the K
    shards' [jobs + readers] domains exceed
    {!Dsdg_core.Index_config.max_domains} (checked before any starts). *)

val open_store :
  ?config:Dsdg_store.Durable.config ->
  ?index:Dsdg_core.Index_config.t ->
  ?recovery_jobs:int ->
  shards:int ->
  dir:string ->
  unit ->
  t * Dsdg_store.Recovery.info array
(** Open (or create) a durable sharded store under [dir]: K =
    [shards] sub-stores [dir/shard-s], each opened through
    [Durable.open_] with [config] and [index], plus the root header.
    [recovery_jobs > 0] opens the shard stores in parallel on that many
    executor worker domains (default [0]: sequential, deterministic).
    Returns per-shard recovery reports in shard order.

    Raises {!Shard_mismatch} when [dir] holds a store of a different
    shard count ({!store_shards}), {!Old_layout} on a version-1 root,
    [Dsdg_store.Codec.Corrupt] on an unreadable header, and
    [Invalid_argument] when [recovery_jobs] plus K shards' worker and
    checkpoint domains exceed {!Dsdg_core.Index_config.max_domains}. *)

val store_shards : dir:string -> int option
(** The shard count of the store in [dir]: K from its header, [1] when
    it holds a WAL or snapshot and no header, [None] for a fresh
    directory.  Raises {!Old_layout} or [Dsdg_store.Codec.Corrupt] as
    {!open_store} does. *)

(** {1 The collection surface} *)

val shards : t -> int
(** The shard count K. *)

val mem : ?epoch_vector:int array -> t -> int -> bool

val search : ?epoch_vector:int array -> t -> string -> (int * int) list
(** All (global doc id, offset) occurrences, sorted -- identical to the
    K=1 index.  Raises [Invalid_argument] on the empty pattern.

    [epoch_vector] (here and on {!count}/{!extract}/{!mem}) answers
    as-of the named composite epoch instead of the live state: element
    [s] resolves shard [s]'s retained or pinned view
    ([Dynamic_index.view_at]).  Raises [Invalid_argument] when the
    vector does not have K entries or any component is no longer
    resolvable. *)

val count : ?epoch_vector:int array -> t -> string -> int
val extract : ?epoch_vector:int array -> t -> doc:int -> off:int -> len:int -> string option
val doc_count : t -> int
val total_symbols : t -> int
val describe : t -> string

val apply_batch : t -> Dsdg_check.Trace.op list -> Dsdg_check.Subject.batch_result list
(** The one write path.  Inserts take the next global ids (and with
    them their shards), deletes are translated to shard-local ids, then
    each shard's sub-batch is applied in op order: in store mode
    through [Durable.apply_batch] (one WAL append + one fsync per
    {e shard}), in memory to the shard index directly.  The shards
    commit one after another, so a reader may see a K > 1 batch's
    inserts and deletes land shard by shard.  Results come back in the
    original op order, with insert results carrying global ids; a
    delete of an id that is not live reports [false].  Only
    [Insert]/[Delete] ops are mutations; anything else raises
    [Invalid_argument]. *)

val insert : t -> string -> int
(** One-op {!apply_batch}: the new document's global id. *)

val delete : t -> int -> bool
(** One-op {!apply_batch}. *)

val drain : t -> unit
(** Land in-flight background jobs on every shard. *)

(** {1 Consistency probes} *)

val shard_of : t -> int -> int option
(** The shard a global id lives on ([g mod K]; [None] if negative). *)

val epoch_vector : t -> int array
(** Composite epoch: element [s] is shard [s]'s published view epoch.
    Length K.  Monotone under updates; two equal vectors bracket a
    quiescent, consistent read. *)

val wal_serials : t -> int array
(** Next WAL serial per shard (store mode; all zeros in memory) -- also
    each replication stream's next position. *)

(** {1 Pinned epoch-vector backups}

    {!pin} freezes all K shard views and (store mode) the per-shard WAL
    serials at one update boundary.  The pinned composite epoch stays
    resolvable by the as-of query surface however far retention evicts,
    and {!backup} serializes the frozen state while the writer
    proceeds. *)

type pin

val pin : t -> pin
(** Pin the current state.  Call between updates on the writer thread. *)

val pin_epoch_vector : pin -> int array
(** The composite epoch the pin froze (shape of {!epoch_vector}); pass
    it to the [?epoch_vector] query surface to read the pinned state. *)

val unpin : t -> pin -> unit
(** Release every per-shard pin. *)

val backup : t -> pin -> dest:string -> string
(** [backup t p ~dest] writes the pinned state into [dest] as a fresh,
    immediately openable store of the same K: one WAL-less snapshot per
    shard at its pinned serial (plus the root header at K > 1).  Store
    mode only; raises [Invalid_argument] in memory.  Returns [dest]. *)

(** {1 Replication surface}

    The leader ships each shard's WAL as its own stream; a follower
    applies shard [s]'s shipped records to its shard [s] through
    {!replica_ops}.  A shipped record already names the shard's local
    ids, so the streams need no ordering among them, and the replica
    directory is itself recoverable and promotable. *)

val backing_stores : t -> Dsdg_store.Durable.t array option
(** The K durable stores (store mode), in shard order. *)

val indexes : t -> Dsdg_core.Dynamic_index.t array
(** The K shard indexes, in shard order (for space and observability
    readouts; write through {!apply_batch}). *)

val replica_ops : t -> shard:int -> Dsdg_check.Trace.op list -> unit
(** Follower: apply shard [shard]'s shipped WAL records, oldest first,
    as one [Durable.apply_batch] of the replica's own store (one fsync,
    identical serials leader/follower).  Raises [Invalid_argument] when
    [shard] is out of range or in memory mode. *)

val replica_snapshot : t -> shard:int -> serial:int -> bytes:string -> unit
(** Follower: the leader compacted past shard [shard]'s position on the
    replica and shipped that shard's newest snapshot
    ({!Dsdg_check.Subject.Rp_snapshot}) instead.  Replace the shard's
    store by it (close, wipe, install, reopen with the store's own
    settings); its stream resumes at [serial].  Raises
    [Invalid_argument] as {!replica_ops} does. *)

(** {1 Lifecycle} *)

val checkpoint : t -> unit
(** Checkpoint every shard store (snapshot + WAL compaction); no-op in
    memory. *)

val close : t -> unit
(** Close every shard.  Idempotent. *)

val kill : t -> torn:bool -> unit
(** Crash simulation: abandon every shard store with no final fsync
    ([Durable.kill]); [torn] additionally plants a half-written final
    record in each shard WAL.  No-op in memory beyond closing. *)

(** {1 The collection record} *)

val subject : ?name:string -> t -> Dsdg_check.Subject.t
(** The sharded collection as a {!Dsdg_check.Subject} ([name] defaults
    to {!describe}).  Queries scatter-gather across the published shard
    views, so a server may front it.  [stats] adds [shards] and reports
    the summed epoch vector as [epoch].  [repl] ships each shard's WAL
    as ["wal<s>"] (store mode); a position the shard compacted away is
    answered with the shard's newest snapshot.  [flush] fsyncs every
    shard WAL with records past its durable bound.  [check] runs the
    view census and the paper invariants ({!Dsdg_check.Oracle}) on
    every shard index, and [events] reports every shard's event ring,
    each line prefixed with its shard. *)
