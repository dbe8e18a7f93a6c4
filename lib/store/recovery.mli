(** Crash recovery: newest valid snapshot + the WAL tail folded into it.
    A checkpoint runs the same fold ({!fold}).

    The recovery state machine (DESIGN.md section 10):

    + scan the store directory for snapshots, newest first; load the
      first one that passes every {!Codec} checksum, skipping (and
      reporting) corrupt ones;
    + read the WAL; drop a torn final record (truncating it on disk),
      fail loudly on interior corruption
      ({!Dsdg_check.Trace.Parse_error});
    + rebuild the index once from the dump (or from an empty dump if no
      snapshot survives) with every WAL mutation of serial [>=] the
      snapshot's serial folded in
      ({!Dsdg_core.Dynamic_index.restore}[ ~tail]): the tail is reduced
      to its net effect and built in bulk, never applied one record at
      a time. The result equals per-op replay in ids, epoch and every
      query answer: a logged-but-failed delete is again a no-op, a
      logged-then-crashed-before-apply mutation takes effect now.

    Recovering twice from the same directory yields the same state --
    recovery mutates nothing except the torn-tail truncation, which is
    itself idempotent (and suppressed entirely under
    [~read_only:true]). *)

(** The WAL starts after the newest loadable snapshot: records between
    the snapshot serial and the WAL's first record are gone (this can
    only happen when a newer snapshot file was corrupted {e and} the
    WAL was already compacted past the older one). The store cannot be
    opened without data loss, so recovery refuses. *)
exception Gap of { dir : string; snapshot_serial : int; wal_serial0 : int }

type info = {
  ri_snapshot : string option;  (** snapshot file recovered from *)
  ri_snapshot_serial : int;  (** its WAL serial ([0] when starting empty) *)
  ri_skipped : (string * string) list;  (** corrupt snapshots skipped: (path, reason) *)
  ri_replayed : int;
      (** WAL records at or after the snapshot serial that recovery
          applied (folded, not replayed one by one; queries in a
          hand-edited log count too) -- the same count per-op replay
          reported, so [dsdg] output and [store.replayed_ops] stay
          comparable *)
  ri_truncated : bool;  (** a torn final WAL record was dropped *)
  ri_next_serial : int;  (** serial the WAL should continue from *)
}

(** One-line summary, as printed by the CLI on open. *)
val info_to_string : info -> string

(** [wal.log] inside a store directory. *)
val wal_path : dir:string -> string

(** [open_or_recover ~dir ()] runs the state machine above. The shape
    fields of [index] ([variant], [backend], [sample], [tau]) are used
    only when the directory holds no usable snapshot -- otherwise the
    snapshot's recorded shape wins (see
    {!Dsdg_core.Dynamic_index.restore}). The runtime fields are fresh
    choices, never persisted. Raises [Invalid_argument] before touching
    the directory if {!Dsdg_core.Index_config.validate} rejects
    [index].

    [read_only] (default [false]) guarantees no on-disk mutation: the
    torn-tail truncation is skipped (the torn record is still dropped
    from the fold, and reported via [ri_truncated]). Inspectors
    ([dsdg stats --store]) and followers bootstrapping a replica use
    this path so observing a store never rewrites it.

    Raises {!Gap} on a snapshot/WAL serial gap (including the case
    where every snapshot is corrupt but the WAL was already compacted,
    so its records cannot stand alone) and
    {!Dsdg_check.Trace.Parse_error} on interior WAL corruption. *)
val open_or_recover :
  ?index:Dsdg_core.Index_config.t ->
  ?read_only:bool ->
  dir:string ->
  unit ->
  Dsdg_core.Dynamic_index.t * info

(** [fold ~index ~base ~upto ~wal] is the dump a checkpoint at serial
    [upto] writes, computed without reading the index: the flat dump of
    the snapshot file [base] (an empty dump with [index]'s shape when
    [None], which stands for serial [0]) with every mutation of serials
    [base serial, upto) of the log [wal] folded in
    ({!Dsdg_core.Dynamic_index.fold_tail}). The records are read with
    the replication cursor ({!Wal.tail}), which is safe while the
    writer appends past [upto]. Raises {!Codec.Corrupt} when [base]
    fails validation and [Failure] when the log ends before [upto]. *)
val fold :
  index:Dsdg_core.Index_config.t ->
  base:string option ->
  upto:int ->
  wal:string ->
  Dsdg_core.Dynamic_index.dump
