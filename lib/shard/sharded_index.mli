(** Sharded scale-out: one document collection hash-partitioned across
    K {!Dsdg_core.Dynamic_index} shards.

    Every shard is a full per-index machine room -- its own writer
    path, executor jobs, reader pool, and (in store mode) its own
    durable directory with snapshot + WAL.  The sharded layer preserves
    the collection's global contract exactly: the k-th insert is
    assigned global document id [k] (the {!Dsdg_check.Model} contract),
    queries answer in global ids, and the empty pattern is uniformly
    rejected -- so a sharded index is byte-identical to the K=1 index
    and to the naive model under the differential runner.

    {2 Partitioning}

    A global id [g] routes to shard [mix g mod K] where [mix] is a
    fixed 64-bit integer mixer: deterministic across runs, uniform
    across shards, and independent of document content.  Inside shard
    [s] documents get dense local ids in arrival order; the global <->
    local translation lives in an immutable mapping published through
    one [Atomic.set] per update, so readers on any domain translate
    against a consistent snapshot (same discipline as the core
    read plane).

    {2 Scatter-gather}

    Doc sets are disjoint by construction, so queries merge trivially:
    [search] concatenates per-shard hits translated to global ids and
    sorts; [count] sums; [extract]/[mem]/[delete] route point-wise.
    Per-shard queries go through the epoch-published read plane
    ([Dynamic_index.query]) whenever the shards own reader pools.  The
    {!epoch_vector} is the composite of per-shard view epochs plus the
    mapping version -- two equal vectors bracket a consistent
    quiescent snapshot.

    {2 Durability}

    Store mode lays out [dir/shard-0 .. dir/shard-K-1] (one
    {!Dsdg_store.Durable} store each) plus a root [shard.meta] log that
    records every placement decision ([I g s]) and migration
    ([M g src dst]) {e before} the corresponding shard-WAL write.
    K = 1 is the single-store layout: the one shard's store is [dir]
    itself and there is no meta log -- every insert lands on shard 0
    under global id = local id, which recovery rebuilds from the shard
    alone, so a K = 1 group commit costs one fsync.
    Recovery opens the K shard stores in parallel on an executor pool,
    then replays the meta log against the per-shard insert counts:
    placements whose shard write never landed (an unacknowledged crash
    tail) are dropped and the meta log is compacted; a migration whose
    destination insert landed but whose source delete did not is
    finished by issuing the missing delete -- so every acknowledged
    write is re-served exactly once, with no loss and no duplication
    across shards (the mid-split kill sweep in [Shard_check] pins this
    down).

    Observability lands in the registered scope ["shard"]:
    [inserts]/[deletes]/[migrations]/[recovery_fixups] counters, a
    [scatter_queries] counter, and [gather_ns] / [recovery_ns]
    histograms. *)

type t

exception
  Shard_mismatch of {
    dir : string;
    on_disk : int;  (** shard count recorded in [dir]'s meta log *)
    requested : int;  (** shard count the caller asked for *)
  }
(** Raised by {!open_store} when an existing store was created with a
    different shard count than the one requested. *)

(** {1 Construction} *)

val create : ?index:Dsdg_core.Index_config.t -> shards:int -> unit -> t
(** In-memory sharded index: [shards] independent
    [Dynamic_index.create ~index]d shards (so [jobs] executor workers
    and [readers] reader-pool domains {e each}).  [retain_epochs] also
    retains recent mappings so composite
    {!epoch_vector}s stay resolvable for as-of queries (the mapping
    version advances once per update vs roughly [1/K] per shard epoch,
    so the mapping ring holds [retain_epochs * K] entries).  Raises
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
    [Durable.open_] with [config] and [index], plus the [shard.meta]
    placement log.
    [recovery_jobs > 0] opens the shard stores in parallel on that many
    executor worker domains (default [0]: sequential, deterministic).
    Returns per-shard recovery reports in shard order.

    Raises {!Shard_mismatch} when [dir] holds a store of a different
    shard count ({!store_shards}), [Invalid_argument] when
    [recovery_jobs] plus K shards' worker and checkpoint domains exceed
    {!Dsdg_core.Index_config.max_domains}, and
    [Dsdg_store.Codec.Corrupt] when the meta log is corrupt beyond its
    final (torn) record. *)

val store_shards : dir:string -> int option
(** The shard count of the store in [dir]: K from its meta log, [1]
    when it holds a WAL or snapshot and no meta log, [None] for a fresh
    directory. *)

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
    ([Dynamic_index.view_at]) and the final element resolves the
    retained or pinned mapping version.  Raises [Invalid_argument] when
    the vector has the wrong length or any component is no longer
    resolvable. *)

val count : ?epoch_vector:int array -> t -> string -> int
val extract : ?epoch_vector:int array -> t -> doc:int -> off:int -> len:int -> string option
val doc_count : t -> int
val total_symbols : t -> int
val describe : t -> string

val apply_batch : t -> Dsdg_check.Trace.op list -> Dsdg_check.Subject.batch_result list
(** The one write path.  The batch is planned against the mapping
    (inserts get the next global ids and their shards, deletes are
    translated to shard-local ids), then each shard's sub-batch is
    applied in op order: in store mode the placements for the whole
    batch are appended to the meta log first (one fsync) and each
    sub-batch goes through [Durable.apply_batch] (one WAL append + one
    fsync per {e shard}); in memory it goes to the shard index
    directly.  Results come back in the original op order, with insert
    results carrying global ids (sequential from 0); a delete of an id
    that is not live reports [false].  Only [Insert]/[Delete] ops are
    mutations; anything else raises [Invalid_argument]. *)

val insert : t -> string -> int
(** One-op {!apply_batch}: the new document's global id. *)

val delete : t -> int -> bool
(** One-op {!apply_batch}. *)

val drain : t -> unit
(** Land in-flight background jobs on every shard. *)

(** {1 Consistency probes} *)

val shard_of : t -> int -> int option
(** Current placement shard of a global id ([None] if never placed). *)

val epoch_vector : t -> int array
(** Composite epoch: element [s] is shard [s]'s published view epoch;
    the final element is the mapping version.  Length K+1.  Monotone
    under updates; two equal vectors bracket a quiescent, consistent
    read. *)

val wal_serials : t -> int array
(** Next WAL serial per shard (store mode; all zeros in memory). *)

(** {1 Pinned epoch-vector backups}

    {!pin} freezes all K shard views, the mapping, and (store mode) the
    per-shard WAL serials at one update boundary.  The pinned composite
    epoch stays resolvable by the as-of query surface however far
    retention evicts, and {!backup} serializes the frozen state while
    the writer proceeds. *)

type pin

val pin : t -> pin
(** Pin the current state.  Call between updates on the writer thread. *)

val pin_epoch_vector : pin -> int array
(** The composite epoch the pin froze (shape of {!epoch_vector}); pass
    it to the [?epoch_vector] query surface to read the pinned state. *)

val unpin : t -> pin -> unit
(** Release every per-shard pin and the pinned mapping. *)

val backup : t -> pin -> dest:string -> string
(** [backup t p ~dest] writes the pinned state into [dest] as a fresh,
    immediately openable sharded store: one WAL-less snapshot per
    [dest/shard-s] at the pinned serial, plus a copy of the meta log
    (whose post-pin tail recovery reconciliation provably drops).
    Store mode only; raises [Invalid_argument] in memory.  Returns
    [dest]. *)

(** {1 Replication surface}

    The leader side ships each shard's WAL plus the placement meta log;
    a follower applies shipped records through {!replica_meta} /
    {!replica_ops}, preserving the leader's meta-before-shard-WAL
    discipline so the replica directory is itself recoverable and
    promotable. *)

val backing_stores : t -> Dsdg_store.Durable.t array option
(** The K durable stores (store mode), in shard order. *)

val meta_records : t -> int
(** Events currently in the meta log -- the meta stream's shipping
    bound (events are fsynced at append under any policy but [Never]);
    always [0] at K = 1, which keeps no meta log. *)

val indexes : t -> Dsdg_core.Dynamic_index.t array
(** The K shard indexes, in shard order (for space and observability
    readouts; write through {!apply_batch}). *)

val replica_meta : t -> string -> unit
(** Follower: apply one shipped meta line -- append it to the local
    meta log and queue the placement until the matching shard record
    arrives.  Raises [Invalid_argument] on an unparseable line, at
    K = 1 or in memory mode. *)

val replica_ops : t -> shard:int -> Dsdg_check.Trace.op Queue.t -> int
(** Follower: apply the shipped shard-WAL records queued for [shard],
    oldest first, through the replica's own durable store (identical
    serials leader/follower), fold their effect into the global
    mapping and pop them; returns how many were applied.  Inserts bind
    the oldest queued placement for [shard]; at K = 1 the k-th insert
    binds global id k, and the whole queue lands as one group commit.

    Applying stops at the first record whose cross-shard prerequisite
    has not arrived yet (K > 1): the insert's placement is still in
    flight on the meta stream, or a migration copy's document is not
    yet bound at the source shard (the original insert rides another
    shard's stream).  That record stays queued; the caller retries
    after making progress on the other streams.  Prerequisites follow
    the leader's temporal order (acyclic), so everything shipped
    eventually applies, and a record that stays unappliable forever is
    a divergence, surfacing as lag that never drains.  Raises
    [Failure] on structural corruption (a placement whose destination
    disagrees with the stream it arrived on). *)

val replica_snapshot : t -> serial:int -> bytes:string -> unit
(** Follower at K = 1: the leader compacted past the replica's position
    and shipped its newest snapshot ({!Dsdg_check.Subject.Rp_snapshot})
    instead.  Replace the shard store by it (close, wipe, install,
    reopen with the store's own settings) and rebind the mapping; the
    stream resumes at [serial].  Raises [Failure] at K > 1, where only a
    pinned backup can seed a replica. *)

val stream_positions : t -> int array
(** The next position of every replication stream: the K shard WAL
    serials, then the meta events bound to an applied shard record.  On
    a leader that is every meta event; on a replica a shipped placement
    still waiting for its shard record does not count, so equal
    positions on leader and replica mean nothing is in flight. *)

(** {1 Rebalancing} *)

val rebalance : ?hook:(int -> unit) -> t -> src:int -> dst:int -> docs:int list -> int
(** Migrate the listed global ids from shard [src] to shard [dst]
    through the WAL: per document, a meta [M] record, a destination
    WAL insert, an atomic mapping publish, then a source WAL delete --
    at every intermediate state exactly one copy is reachable, and a
    crash at any point recovers to exactly-once (see the module
    preamble).  Ids not currently live on [src] are skipped.  Returns
    the number of documents moved.

    [hook] is the kill-point instrument: it is called with an
    incrementing step number at each crash window boundary (before the
    meta record, after it, after the destination insert, after the
    source delete).  A hook that raises aborts the migration
    mid-flight, leaving on-disk state exactly as a crash there would --
    pair with {!kill} and {!open_store} to sweep every kill point.
    Raises [Invalid_argument] if [src = dst] or either is out of
    range. *)

val rebalance_hottest : t -> int
(** Move half the documents of the largest shard (by symbols) to the
    smallest.  Returns the number of documents moved; [0] when K = 1
    or the collection is empty. *)

(** {1 Lifecycle} *)

val checkpoint : t -> unit
(** Checkpoint every shard store (snapshot + WAL compaction); no-op in
    memory. *)

val close : t -> unit
(** Close every shard (and the meta log).  Idempotent. *)

val kill : t -> torn:bool -> unit
(** Crash simulation: abandon every shard store with no final fsync
    ([Durable.kill]); [torn] additionally plants a half-written final
    record in each shard WAL.  No-op in memory beyond closing. *)

(** {1 The collection record} *)

val subject : ?name:string -> t -> Dsdg_check.Subject.t
(** The sharded collection as a {!Dsdg_check.Subject} ([name] defaults
    to {!describe}).  Queries scatter-gather across the published shard
    views, so a server may front it.  [stats] adds [shards] and reports
    the summed epoch vector as [epoch].  [repl] ships the ["meta"]
    stream (K > 1) and each shard's WAL as ["wal<s>"] (store mode).  A
    shard position compacted away is answered with the shard's newest
    snapshot at K = 1 and is an error at K > 1, where only a pinned
    backup seeds a replica.  [flush] fsyncs every shard WAL with
    records past its durable bound.  [check] runs the view census and
    the paper invariants ({!Dsdg_check.Oracle}) on every shard index,
    and [events] reports every shard's event ring, each line prefixed
    with its shard. *)
