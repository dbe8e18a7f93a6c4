(** A {!Dsdg_core.Dynamic_index} with durability: write-ahead logging
    of every mutation, periodic checkpoints, crash recovery on open.

    Log-ahead contract: {!insert} and {!delete} append the mutation to
    the WAL (and fsync, per the {!Wal.sync} policy) {e before} applying
    it, so any update whose effect was ever observable is on stable
    storage. Queries go straight to the index and are never logged.

    Checkpointing: every [checkpoint_every] updates the index state is
    snapshotted and the WAL is compacted to the records since. With
    [checkpoint_jobs >= 1] the expensive part -- extracting and
    serializing the documents of the published view -- runs on a
    {!Dsdg_exec.Executor} worker domain against the immutable
    read-plane view, Transformation 2 style: the writer only captures
    the O(1) scalars at the trigger update and installs the finished
    file (rename + WAL compaction) at a later update boundary, so
    update latency stays flat while checkpoints happen. *)

type config = {
  sync : Wal.sync;  (** WAL fsync policy (default [Always]) *)
  checkpoint_every : int;  (** updates between checkpoints; [0] = only explicit {!checkpoint} *)
  checkpoint_jobs : int;  (** worker domains for checkpoint serialization; [0] = synchronous *)
  keep_snapshots : int;  (** snapshots retained after a new one installs (>= 1) *)
  wal_archives : int;
      (** compacted WAL segments kept as {!Wal.archives} so lagging
          replicas can still be shipped pre-checkpoint records; [0]
          disables archiving (default 4) *)
}

(** [Always] fsync, checkpoint only on demand, synchronous
    serialization, one retained snapshot. *)
val default_config : config

type t

(** Open a store directory, running crash recovery if it has prior
    state (see {!Recovery.open_or_recover} for which [index] fields a
    snapshot overrides, and for exceptions). Creates the directory and a fresh WAL as needed. *)
val open_ :
  ?config:config ->
  ?index:Dsdg_core.Index_config.t ->
  dir:string ->
  unit ->
  t * Recovery.info

(** The store directory this handle was opened on. *)
val dir : t -> string

(** The wrapped index, for queries (search/count/extract/views/stats).
    Mutating it directly bypasses the WAL -- use {!insert}/{!delete}. *)
val index : t -> Dsdg_core.Dynamic_index.t

(** WAL-append + fsync, then apply; returns the new document id. *)
val insert : t -> string -> int

(** WAL-append + fsync, then apply; [false] if the document was already
    dead (the record still lands in the log, and recovery's fold treats
    it as a no-op again). *)
val delete : t -> int -> bool

(** Outcome of one mutation of a batch, in batch order. *)
type batch_result = Br_inserted of int | Br_deleted of bool

(** [apply_batch t ops] is the group-commit write path: the whole batch
    is WAL-appended and the fsync policy runs {e once}
    ({!Wal.append_batch}) before any mutation is applied, so under
    [Always] an arbitrarily large batch costs a single fsync and every
    acknowledged mutation is durable. Only [Insert]/[Delete] ops are
    legal; anything else raises [Invalid_argument] before the log is
    touched. [apply_batch t [op]] is equivalent to {!insert}/{!delete}. *)
val apply_batch : t -> Dsdg_check.Trace.op list -> batch_result list

(** Serial the next mutation will be logged under. *)
val wal_serial : t -> int

(** Exclusive upper bound of the stable WAL prefix
    ({!Wal.durable_serial}) -- what the replication plane may ship. *)
val durable_serial : t -> int

(** The live WAL file (the path a replication stream tails; compaction
    atomically renames a fresh log over it). *)
val wal_path : t -> string

(** Force an fsync of the WAL now, advancing {!durable_serial} to
    {!wal_serial} -- the leader's idle-flush hook under lazy sync
    policies. *)
val sync_wal : t -> unit

(** {1 Pinned-view backups}

    {!pin} freezes the published view {e and} its WAL serial (and the
    O(1) writer scalars a consistent dump needs) at one update boundary;
    {!backup} then serializes that frozen state while the writer keeps
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
    the current state is written and the WAL is compacted to empty. *)
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
