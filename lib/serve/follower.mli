(** WAL-shipped read replica of a serving leader.

    {!start} dials a leader running the service plane, reads its shard
    count K from [stats], opens a local replica store of the same K
    ({!Dsdg_shard.Sharded_index}), and spawns a tail thread that
    polls the leader's replication streams ({!Protocol.Repl}) and
    replays shipped records through the replica's {e own} durable
    write path -- identical WAL serials leader/follower, so the replica
    directory is at all times an ordinary store: killable, recoverable,
    and promotable by simply serving it.

    Shipping bound: the leader only ships records below its
    {!Dsdg_store.Wal.durable_serial}, i.e. records that survived the
    group-commit fsync -- a follower can never observe a write the
    leader has not acknowledged as durable.

    Bootstrap: a replica asking for a position its shard's leader store
    compacted away receives that shard's newest snapshot file (chunked
    over the wire), re-seeds the shard in place
    ({!Dsdg_shard.Sharded_index.replica_snapshot}: close, wipe, install,
    reopen) and keeps tailing from its serial -- a fresh replica and one
    that fell behind alike, at any K.  A replica may also start from a
    pinned backup ({!Dsdg_shard.Sharded_index.backup}) copied into
    [dir].

    Replay: each poll cycle polls the K shard streams one after
    another.  Placement is arithmetic (global id [l*K + s] is shard
    [s]'s local id [l]), so a shipped record needs nothing from the
    other streams: shard [s]'s records land as one group commit of
    replica shard [s] ({!Dsdg_shard.Sharded_index.replica_ops}).

    A fatal divergence (serial discontinuity, unparseable record) stops
    the tail loop and is reported by {!error}; transport failures
    trigger reconnection with exponential backoff (0.2s doubling to
    5s).

    Observability lands in the registered scope ["repl"], shared with
    the leader's shipping counters: [frames_replayed], [reconnects],
    [snapshot_bootstraps], and [lag_serials]/[lag_epochs] gauges. *)

type t

(** A replication-lag reading (all monotonic except the gauges). *)
type lag = {
  lg_serials : int;  (** records shipped by the leader but not yet applied *)
  lg_epochs : int;  (** leader shard epochs minus replica shard epochs (summed) *)
  lg_applied : int;  (** records replayed over this follower's lifetime *)
  lg_connected : bool;
}

(** [start ~leader ~dir ()] connects (retrying [connect_attempts]
    times with backoff; raises [Failure] if the leader stays
    unreachable), bootstraps the replica under [dir], and spawns the
    tail thread.  [poll] (default 20ms) is the idle delay between
    empty polls; [config] and [index] mirror
    {!Dsdg_shard.Sharded_index.open_store} and apply to every shard of
    the local replica -- including [index.fault], which plants a
    defect in the {e replica's} index; the replication checkers use it
    to prove divergence detection works. *)
val start :
  ?config:Dsdg_store.Durable.config ->
  ?index:Dsdg_core.Index_config.t ->
  ?poll:float ->
  ?connect_attempts:int ->
  leader:[ `Unix of string | `Tcp of string * int ] ->
  dir:string ->
  unit ->
  t

val dir : t -> string

(** The local replica store as a collection
    ({!Dsdg_shard.Sharded_index.subject}, named ["replica"]).  Its
    queries read published views and are safe from any thread; do not
    write -- the tail thread is the single writer. *)
val replica : t -> Dsdg_check.Subject.t

(** Current lag reading, updated once per poll cycle. *)
val lag : t -> lag

(** Stream positions fully applied {e and published} to the replica's
    read plane: the shard WAL serials
    ({!Dsdg_shard.Sharded_index.wal_serials}) at the end of the last
    poll cycle.  Unlike the
    replica store's own WAL serials -- which advance when a shipped
    batch is logged, before its index apply finishes -- this moves
    only at cycle boundaries, so equality with the leader's positions
    certifies the replica's views reflect every shipped record (the
    checkers' catch-up predicate). *)
val watermark : t -> int array

(** The fatal divergence that stopped the tail loop, if any. *)
val error : t -> string option

(** Stop tailing and hand over the still-open replica as a writable
    collection -- the promotion path: verify it, serve it, or close it
    yourself.  The tail thread is joined; the follower must not be
    reused afterwards. *)
val detach : t -> Dsdg_check.Subject.t

(** Stop tailing and close the replica store cleanly. *)
val stop : t -> unit

(** Stop tailing and crash the replica store ({!Dsdg_shard.Sharded_index.kill})
    -- the follower half of the failover kill sweeps. *)
val kill : t -> torn:bool -> unit

(** The replica as a read-only collection for {!Server.start}: queries
    and stats (including the lag fields [lag_serials]/[lag_epochs]/
    [replayed]/[connected]) serve locally from the current {!replica};
    mutations are refused with a {!Server.Redirect} naming the leader,
    [repl] polls are refused (replicas do not ship streams) and
    [checkpoint] is a no-op -- the tail thread owns the store's write
    plane.  [close] is {!stop} and [kill] is {!kill}, so [Server.stop]
    on a server running it stops the follower and closes the
    replica. *)
val read_only : t -> Dsdg_check.Subject.t
