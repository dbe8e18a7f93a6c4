(** Sharded collections as differential subjects, and the crashes the
    kill sweeps drive.

    {!subjects} puts K-shard collections into the {!Dsdg_check.Runner}
    matrix next to the plain index, so a sharded collection must answer
    every op exactly as the model does. Periodic
    {!Sharded_index.rebalance_hottest} churn keeps document migration
    inside the checked region. {!crash} is the store, at any K, for
    {!Dsdg_check.Runner.sweep}: at K = 1 it is the single-store layout.
    {!split_kill_sweep} kills mid-migration at {e every} kill point of
    the split state machine and checks that the recovered shards
    re-serve every acknowledged write exactly once: no loss, no
    duplication across shards. *)

(** One in-memory {!Sharded_index.subject} per shard count, named
    ["<name> K=<k>"] and built with [index]. Every 41st [check] (the
    runner calls it after each op) first migrates the hottest shard's
    documents, so migration happens between checked ops. *)
val subjects :
  index:Dsdg_core.Index_config.t -> name:string -> int list -> (unit -> Dsdg_check.Subject.t) list

(** The sweeps' store settings: fsync-always and a checkpoint every 7
    updates, so a sweep crosses snapshot installs as well as pure WAL
    tails. *)
val default_config : Dsdg_store.Durable.config

(** [crash ~shards ~dir ()]: a store of [shards] shards under [dir].
    The kill completes a hot-shard migration first on odd kill points
    (nothing moves at K = 1), so recovery replays migrations from the
    meta log as well as placements, then crashes with
    {!Sharded_index.kill} ([torn], default [true], plants a
    half-written final record in each shard WAL). Reopening recovers
    the shards in parallel on 2 executor workers when K > 1. [config]
    defaults to {!default_config}. *)
val crash :
  ?index:Dsdg_core.Index_config.t ->
  ?config:Dsdg_store.Durable.config ->
  ?torn:bool ->
  shards:int ->
  dir:string ->
  unit ->
  Sharded_index.t Dsdg_check.Runner.crash

(** [split_kill_sweep ~shards ~dir ~ops ()] is {!Dsdg_check.Runner.sweep}
    with kill points inside a split: every point applies [ops], then
    migrates every live document of the fullest shard to the next one
    and kills ({!Sharded_index.kill}) at that point of the migration
    state machine (before/after the meta intent record, after the
    destination insert, after the source delete; the last point lets
    the split finish). After every crash the store is reopened and
    verified, then a new insert must get the next global id and be
    served at once. [kf_point] reports the kill point within the
    migration; [torn] defaults to [false]. Needs [shards >= 2]. *)
val split_kill_sweep :
  ?index:Dsdg_core.Index_config.t ->
  ?config:Dsdg_store.Durable.config ->
  ?torn:bool ->
  shards:int ->
  dir:string ->
  ops:Dsdg_check.Trace.op list ->
  unit ->
  Dsdg_check.Runner.kill_outcome
