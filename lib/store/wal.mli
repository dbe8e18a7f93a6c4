(** Write-ahead log for a durable index.

    The record format {e is} the {!Dsdg_check.Trace} line format: one
    mutation per line (["+ \"text\""], ["- id"]), preceded by a
    [%]-comment header carrying the serial number of the first record.
    A WAL is therefore a valid trace file -- [dsdg fuzz --replay
    path/to/wal.log] replays it directly -- while the header keeps
    replay aligned with snapshots: a snapshot taken at serial [s]
    covers every record with serial [< s], and recovery replays the
    records [>= s].

    Serial numbers are positional: record [k] (0-based) of a file with
    header serial [s0] has serial [s0 + k]. Failed mutations (a delete
    of a dead id) are logged too -- append happens {e before} apply --
    and replay idempotently re-fails them, so serials stay aligned
    without per-record ids.

    Torn-write rule: the final line of a crashed log may be a partial
    record. Any final line {e not} terminated by a newline is torn and
    is dropped by {!read} (even if its prefix happens to parse -- ["-
    12"] torn from ["- 123"] would otherwise replay the wrong id).
    A malformed line that {e is} newline-terminated was fully written,
    so it is real corruption: {!read} raises
    {!Dsdg_check.Trace.Parse_error} locating it. *)

(** When [append] forces the record to stable storage. [Always] fsyncs
    every record (full durability, the default); [Every n] fsyncs every
    [n] records (bounded loss window, much cheaper); [Never] leaves
    flushing to the OS (survives a process crash, not a power cut). *)
type sync = Always | Every of int | Never

(** Parses the CLI spellings ["always"] / ["every-N"] / ["never"];
    [Error] explains the accepted forms. *)
val sync_of_string : string -> (sync, string) result

(** Inverse of {!sync_of_string}. *)
val sync_to_string : sync -> string

(** An open log, positioned for appending. *)
type t

(** [create ~sync path ~serial0] truncates/creates the file with a
    fresh header. *)
val create : ?sync:sync -> string -> serial0:int -> t

(** Append one record; returns its serial. Flushes to the OS always,
    fsyncs per the {!sync} policy. *)
val append : t -> Dsdg_check.Trace.op -> int

(** [append_batch t ops] appends the whole batch, flushes once, and
    runs the {!sync} policy {e once} for the batch -- under [Always]
    that is a single fsync amortized over every record (group commit);
    under [Every n] the pending-append counter advances by the batch
    length, preserving the "fewer than [n] acknowledged records lost"
    crash window. Returns the serial of the first record ([ops = []]
    appends nothing and returns {!next_serial}). *)
val append_batch : t -> Dsdg_check.Trace.op list -> int

(** Serial the next {!append} will assign. *)
val next_serial : t -> int

(** The exclusive upper bound of the {e stable} prefix: every record
    with a smaller serial has survived an fsync (under [Always] /
    [Every n]); under [Never] this is {!next_serial} -- that policy has
    no durability to offer, so "flushed" is the only bound there is.
    The replication plane ships records strictly below this serial, so
    a follower can never observe a write the leader could still lose. *)
val durable_serial : t -> int

(** The log file this handle appends to. *)
val path : t -> string

(** Force everything appended so far to stable storage. *)
val sync : t -> unit

(** [sync] then close. *)
val close : t -> unit

(** Close the descriptor of a handle whose file has been superseded (a
    compaction renamed a fresh log over it) without any final fsync.
    Using the handle afterwards is an error. *)
val abandon : t -> unit

(** The [Every n] pending-append counter: acknowledged appends since
    the last fsync (always [0] under [Always] and [Never], which never
    advance it). Exposed so regression tests can pin the accounting
    across batches, compaction and reopen. *)
val unsynced : t -> int

(** Crash simulation for the kill-and-recover harness: close the file
    abruptly, with no final fsync; with [torn:true], first append a
    deliberately half-written record (no newline) -- the planted
    [`Torn_write] fault the recovery path must truncate. *)
val kill : t -> torn:bool -> unit

(** {1 Reading} *)

type contents = {
  wc_serial0 : int;  (** header serial *)
  wc_ops : (int * Dsdg_check.Trace.op) list;  (** (serial, op), in order *)
  wc_truncated : bool;  (** a torn final record was dropped *)
  wc_valid_bytes : int;  (** file prefix ending at the last whole record *)
}

(** Parse a log: the header line first, then records, with blank and
    ['%'] lines inert. Raises {!Dsdg_check.Trace.Parse_error} on a
    missing / malformed header or a malformed interior record,
    [Sys_error] if unreadable. A torn final record is dropped, not an
    error. {!tail} parses with the same line scanner. *)
val read : string -> contents

(** Truncate the file to [wc_valid_bytes], discarding the torn tail on
    disk (idempotent when nothing was torn). *)
val truncate_torn : string -> contents -> unit

(** Reopen an existing (already {!read}, already truncated) log for
    appending. [next_serial] is [wc_serial0 + length wc_ops]. *)
val open_append : ?sync:sync -> string -> next_serial:int -> t

(** [rewrite ~sync path ~serial0 ops] atomically replaces the log with
    a fresh one whose header starts at [serial0] and whose records are
    [ops] -- WAL compaction after a checkpoint installs. With
    [~archive:true] the outgoing log is first hard-linked to
    [<path>.arch.<serial0>] (see {!archives}), so the compacted-away
    records stay shippable to lagging replicas. Returns the reopened
    log. *)
val rewrite : ?sync:sync -> ?archive:bool -> string -> serial0:int -> Dsdg_check.Trace.op list -> t

(** Archive segments next to [path] as [(file, end_serial)] pairs,
    ascending: segment [(f, e)] holds records with serials below [e],
    starting wherever the previous compaction left off (its own header
    records the exact start). Consecutive segments and the live log
    are contiguous in serials unless pruning removed a prefix. *)
val archives : string -> (string * int) list

(** Delete the oldest archive segments, keeping at most [keep]. *)
val prune_archives : string -> keep:int -> unit

(** {1 Tailing}

    A read-side streaming cursor: follow the records of a live log from
    a starting serial while a writer appends (and occasionally compacts)
    concurrently. The reader-side torn-write rule mirrors {!read}'s: a
    final line with no newline yet -- whether a write in flight or a
    genuinely torn record -- is held back until its newline arrives. *)

(** The cursor's next wanted serial was compacted away: the log was
    rewritten to start at a later serial, so the records in between can
    no longer be streamed. The consumer must re-bootstrap (e.g. from a
    snapshot). *)
exception Tail_gap of { wanted : int; serial0 : int }

type cursor

(** [tail ~from path] positions a cursor so the first delivered record
    has serial [>= from]. Nothing is read until the first {!tail_poll};
    the file may not even exist yet. [buf_size] (default 64 KiB) is the
    initial read buffer, grown to hold a line longer than it -- records
    straddling chunk boundaries are reassembled, so tests shrink it to
    force the boundary cases. *)
val tail : ?buf_size:int -> from:int -> string -> cursor

(** Deliver every complete record appended since the last poll, in
    serial order ([[]] when nothing new). With [~limit], records with
    serial [>= limit] stay queued inside the cursor for a later poll --
    the hook for shipping only up to {!durable_serial}. Detects
    compaction (inode change) and truncation (file shrank) at EOF and
    transparently reopens, skipping forward to the wanted serial.
    Raises {!Tail_gap} if the reopened log starts past it,
    {!Dsdg_check.Trace.Parse_error} on a malformed header or interior
    record. *)
val tail_poll : ?limit:int -> cursor -> (int * Dsdg_check.Trace.op) list

(** Serial the next delivered record will have. *)
val tail_next_serial : cursor -> int

(** Records parsed but held back by [~limit]. *)
val tail_pending : cursor -> int

(** Release the cursor's descriptor (idempotent; the cursor may be
    polled again -- it reopens). *)
val tail_close : cursor -> unit
