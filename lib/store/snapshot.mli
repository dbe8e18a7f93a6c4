(** Whole-index snapshots on disk.

    A snapshot file is a {!Codec} container of kind ["snapshot"]: the
    flat dump's sections (live documents, shape, epoch, next id) plus a
    ["store"] section recording the WAL serial the snapshot is aligned
    with -- the state after applying every WAL record with serial
    [< wal_serial]. Files are named
    [snap-<serial>.dsdg] and written atomically (temp + rename), so the
    newest {e valid} file in a store directory is always a complete,
    checksummed snapshot, whatever the process was doing when it
    died. *)

(** [snap-<serial>.dsdg] inside [dir]. *)
val path_for : dir:string -> wal_serial:int -> string

(** [mkdir -p]. *)
val ensure_dir : string -> unit

(** Write a snapshot container to an explicit path (used by background
    checkpoint jobs, which serialize to a scratch name and let the
    writer rename at the install point). *)
val write : path:string -> wal_serial:int -> Dsdg_core.Dynamic_index.dump -> unit

(** [save ~dir ~wal_serial dump] writes {!path_for} atomically
    (creating [dir] if needed) and returns the path. *)
val save : dir:string -> wal_serial:int -> Dsdg_core.Dynamic_index.dump -> string

(** Load and fully validate one snapshot file; returns the dump and its
    WAL serial. A version-1 file is flattened to its live documents.
    Raises {!Codec.Corrupt} on any integrity failure. *)
val load : string -> Dsdg_core.Dynamic_index.dump * int

(** [(wal_serial, epoch)] from the ["store"] section -- the durable
    epoch<->serial correspondence: the snapshot is the state after
    every WAL record with serial [< wal_serial], published as read-plane
    epoch [epoch]. Validates the container but does not decode the
    dump; [epoch] is [0] for files written before the correspondence
    was recorded. Raises {!Codec.Corrupt} on integrity failure. *)
val info : string -> int * int

(** All [(path, wal_serial)] snapshots in [dir], newest (highest
    serial) first. Empty if the directory does not exist. *)
val list : dir:string -> (string * int) list

(** Delete all but the [keep] newest snapshot files. *)
val prune : dir:string -> keep:int -> unit
