(** Leader/follower differential checking -- the replication entries of
    the check matrix (DESIGN.md section 6).

    {!convergence} spins up a real cluster in [dir] (leader store +
    {!Server} on an ephemeral TCP port, {!Follower} replica, {!Client}),
    drives a fuzz mutation stream through the wire with
    {!Dsdg_check.Runner.apply} (the leader, seen through its client, is
    a {!Dsdg_check.Subject}), and at quiesce points (every
    [quiesce_every] mutations, plus once at the end) waits for the
    replica to catch up to the leader's stream positions and checks it
    with {!Dsdg_check.Runner.verify}. The replica ({!Follower.replica})
    runs the paper invariants on its index, or on every shard index of
    a sharded replica, and their cleaning-schedule probe catches a
    planted [`Skip_top_clean].

    {!failover_sweep} is {!Dsdg_check.Runner.sweep} with the cluster as
    the crash: replay the prefix through a fresh cluster, quiesce
    (acked writes under asynchronous shipping are only guaranteed on
    the leader's disk, so the sweep waits for catch-up before pulling
    the trigger), kill the leader with {!Server.kill} (optionally
    planting a torn final WAL record), and promote the follower via
    {!Follower.detach}. The sweep then verifies every acknowledged
    write, drives the remaining ops on the promoted store and verifies
    again -- promotion must yield a fully functional writer.

    Checks run under [sync = Always] by default: the acked = durable =
    shipped chain is what makes "verify the replica against everything
    the client saw acknowledged" a sound oracle. *)

type outcome = {
  rc_points : int;  (** quiesce points exercised *)
  rc_failures : (int * string) list;
      (** (ops applied before the point, discrepancy); empty = converged *)
}

val outcome_to_string : outcome -> string

(** [convergence ~dir ~ops ()] -- non-mutation ops in [ops] are
    ignored.  [index] configures leader and replica alike, except that
    [index.fault] is planted in the {e replica's} index only (the
    leader's WAL stays correct either way, so replica-side corruption
    is the only kind this oracle can and must catch -- the planted
    fault is the checker's self-test).  [dir] is wiped first. *)
val convergence :
  ?index:Dsdg_core.Index_config.t ->
  ?shards:int ->
  ?sync:Dsdg_store.Wal.sync ->
  ?checkpoint_every:int ->
  ?quiesce_every:int ->
  dir:string ->
  ops:Dsdg_check.Trace.op list ->
  unit ->
  outcome

(** [wait_catchup leader follower] waits until the follower's
    watermark equals the leader's stream positions and returns [true].
    It returns [false] on a follower error, once neither side has
    advanced for 1 s, or after [timeout] seconds in all (default 30). *)
val wait_catchup : ?timeout:float -> Dsdg_shard.Sharded_index.t -> Follower.t -> bool

(** Delta-debug a diverging stream to a near-minimal reproducer: each
    candidate replays a whole fresh cluster, so [max_runs] (default 24)
    keeps the budget sane. *)
val shrink :
  ?index:Dsdg_core.Index_config.t ->
  ?shards:int ->
  ?sync:Dsdg_store.Wal.sync ->
  ?checkpoint_every:int ->
  ?quiesce_every:int ->
  ?max_runs:int ->
  dir:string ->
  Dsdg_check.Trace.op list ->
  Dsdg_check.Trace.op list

(** [failover_sweep ~dir ~ops ()] kills the leader at every [stride]-th
    prefix of the mutations in [ops] (plus the empty and full
    prefixes) and checks promotion; [torn] (default true) plants a torn
    final record in the dying leader's WAL. *)
val failover_sweep :
  ?index:Dsdg_core.Index_config.t ->
  ?shards:int ->
  ?sync:Dsdg_store.Wal.sync ->
  ?checkpoint_every:int ->
  ?torn:bool ->
  ?stride:int ->
  dir:string ->
  ops:Dsdg_check.Trace.op list ->
  unit ->
  Dsdg_check.Runner.kill_outcome
