(** A {!Dsdg_core.Dynamic_index} with durability: write-ahead logging
    of every mutation, periodic checkpoints, crash recovery on open.

    Log-ahead contract: {!apply_batch} appends a batch to the WAL (and
    fsyncs, per the {!Wal.sync} policy) {e before} applying it, so any
    update whose effect was ever observable is on stable storage.
    Queries go straight to the index and are never logged.

    Checkpointing: every [checkpoint_every] updates (counted at batch
    boundaries, where the index has applied every logged record) a new
    flat snapshot is written and the WAL is compacted to the records
    since. A checkpoint does not read the index: it is
    {!Recovery.fold} -- the newest snapshot's documents, re-read from
    its file, with the WAL records logged after it folded in -- the
    same fold crash recovery runs. The fold's document count, symbol
    count, next id and epoch are compared with the index's O(1) values
    at the trigger; a mismatch raises {!Checkpoint_mismatch}, is counted
    in [store.checkpoint_failures], and no snapshot is written. When the
    newest snapshot fails validation (or cannot be read) the checkpoint
    falls back to inverting the published view
    ({!Dsdg_core.Dynamic_index.dump}, counted in
    [store.checkpoint_fallbacks]). With [checkpoint_jobs >= 1] the fold
    runs on a {!Dsdg_exec.Executor} worker domain from the base path and
    the trigger serial: the writer only captures the O(1) values at the
    trigger and installs the finished file (rename + WAL compaction) at
    a later batch boundary, so update latency stays flat while
    checkpoints happen. *)

(** A checkpoint's fold disagreed with the index (the message names
    both sides); nothing was written. *)
exception Checkpoint_mismatch of string

type config = {
  sync : Wal.sync;  (** WAL fsync policy (default [Always]) *)
  checkpoint_every : int;  (** updates between checkpoints; [0] = only explicit {!checkpoint} *)
  checkpoint_jobs : int;  (** worker domains for checkpoint folds; [0] = synchronous *)
}

(** [Always] fsync, checkpoint only on demand, synchronous
    serialization. Every store keeps two snapshots after a new one
    installs and four compacted WAL segments as {!Wal.archives}, so
    lagging replicas can still be shipped pre-checkpoint records. *)
val default_config : config

type t

(** Open a store directory, running crash recovery if it has prior
    state (see {!Recovery.open_or_recover} for which [index] fields a
    snapshot overrides, and for exceptions). Creates the directory and
    a fresh WAL as needed. Raises [Invalid_argument] when [dir] is the
    root of a sharded store (it holds [shard.meta]), or, before any
    domain starts, when the index's worker domains plus
    [checkpoint_jobs] exceed {!Dsdg_core.Index_config.max_domains}. *)
val open_ :
  ?config:config ->
  ?index:Dsdg_core.Index_config.t ->
  dir:string ->
  unit ->
  t * Recovery.info

(** The store directory this handle was opened on. *)
val dir : t -> string

(** The wrapped index, for queries (search/count/extract/views/stats).
    Mutating it directly bypasses the WAL -- use {!apply_batch}. *)
val index : t -> Dsdg_core.Dynamic_index.t

(** Outcome of one mutation of a batch (the collection record's type). *)
type batch_result = Dsdg_check.Subject.batch_result = Br_inserted of int | Br_deleted of bool

(** [apply_batch t ops] is the group-commit write path: the whole batch
    is WAL-appended and the fsync policy runs {e once}
    ({!Wal.append_batch}) before any mutation is applied, so under
    [Always] an arbitrarily large batch costs a single fsync and every
    acknowledged mutation is durable. Only [Insert]/[Delete] ops are
    legal; anything else raises [Invalid_argument] before the log is
    touched. A delete of a dead id still lands in the log, and
    recovery's fold treats it as a no-op again. *)
val apply_batch : t -> Dsdg_check.Trace.op list -> batch_result list

(** One-op {!apply_batch}: the new document id. *)
val insert : t -> string -> int

(** One-op {!apply_batch}: [false] if the document was not live. *)
val delete : t -> int -> bool

(** Serial the next mutation will be logged under. *)
val wal_serial : t -> int

(** Exclusive upper bound of the stable WAL prefix
    ({!Wal.durable_serial}) -- what the replication plane may ship. *)
val durable_serial : t -> int

(** The live WAL file (the path a replication stream tails; compaction
    atomically renames a fresh log over it). *)
val wal_path : t -> string

(** Fsync the WAL now if records are logged past {!durable_serial},
    advancing it to {!wal_serial} -- the server's idle flush under lazy
    sync policies. *)
val sync_wal : t -> unit

(** {1 Pinned-view backups}

    {!pin} freezes the published view {e and} its WAL serial at one
    update boundary; {!backup} then inverts that frozen view
    ({!Dsdg_core.Dynamic_index.view_dump}) while the writer keeps
    mutating. *)

type pin

(** Pin the current state. Call between updates on the writer thread. *)
val pin : t -> pin

(** Read-plane epoch of the pinned view. *)
val pin_epoch : pin -> int

(** WAL serial the pinned view is aligned with: the pinned state is
    exactly the effect of every record with a smaller serial. *)
val pin_serial : pin -> int

(** Release the pin ({!Dsdg_core.Dynamic_index.unpin}). *)
val unpin : t -> pin -> unit

(** [backup t p ~dest] writes the pinned state into [dest] as a fresh,
    immediately openable store directory (one snapshot at the pinned
    serial, no WAL) and returns the snapshot path. O(n) in the pinned
    view; safe while the writer proceeds. *)
val backup : t -> pin -> dest:string -> string

(** Force a checkpoint now, synchronously: any in-flight background
    checkpoint is awaited and installed first, then a fresh snapshot of
    the current state is folded and written and the WAL is compacted to
    empty. Raises {!Checkpoint_mismatch} if the fold disagrees with the
    index. *)
val checkpoint : t -> unit

(** Finish in-flight checkpoints, fsync the WAL, release worker
    domains, close the index. The store reopens with an empty WAL tail
    after a {!checkpoint}; otherwise reopening folds the WAL tail into
    the snapshot. *)
val close : t -> unit

(** Crash simulation for the kill-and-recover harness: abandon the
    store with no draining, no checkpoint install and no final fsync;
    [torn:true] plants a half-written final WAL record ({!Wal.kill}).
    Worker domains are joined (a process-level courtesy the real crash
    would not extend) but no store file is touched beyond the torn
    bytes. The [t] is unusable afterwards; reopen with {!open_}. *)
val kill : t -> torn:bool -> unit

(** {1 Replication} *)

(** [ship t ~from] answers one replication poll of the store's WAL
    stream: the records from serial [from] up to {!durable_serial};
    from the {!Wal.archives} when compaction moved [from] out of the
    live log; the newest snapshot when [from] predates the archives
    too; otherwise an error. The reply carries the published view's
    epoch. *)
val ship : t -> from:int -> Dsdg_check.Subject.repl_reply

(** [install_snapshot ~dir ~serial bytes] replaces the store in [dir],
    which must not be open: its snapshots, WAL and archives are
    removed and [bytes] (a snapshot file shipped by {!ship}) becomes
    the snapshot at [serial], so the next {!open_} recovers from it. *)
val install_snapshot : dir:string -> serial:int -> string -> unit
