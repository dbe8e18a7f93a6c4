(** Sharded collections as differential subjects.

    {!subjects} puts K-shard collections into the {!Dsdg_check.Runner}
    matrix next to the plain K=1 index, so a sharded collection must
    answer every op exactly as the model does. Periodic
    {!Sharded_index.rebalance_hottest} churn keeps document migration
    inside the checked region. {!crash} is the sharded store for
    {!Dsdg_check.Runner.sweep}. {!split_kill_sweep} kills mid-migration
    at {e every} kill point of the split state machine and checks that
    the recovered shards re-serve every acknowledged write exactly
    once: no loss, no duplication across shards. *)

(** One in-memory {!Sharded_index.subject} per shard count, named
    ["<name> K=<k>"] and built with [index]. Every 41st [check] (the
    runner calls it after each op) first migrates the hottest shard's
    documents, so migration happens between checked ops. *)
val subjects :
  index:Dsdg_core.Index_config.t -> name:string -> int list -> (unit -> Dsdg_check.Subject.t) list

(** [crash ~shards ~dir ()]: a sharded store under [dir]. The kill
    completes a hot-shard migration first on odd kill points, so
    recovery replays migrations from the meta log as well as
    placements, then crashes with {!Sharded_index.kill} ([torn]
    defaults to [true]). Reopening recovers the shards in parallel on
    2 executor workers when K > 1. [config] defaults to
    {!Dsdg_store.Kill_check.default_config}. *)
val crash :
  ?index:Dsdg_core.Index_config.t ->
  ?config:Dsdg_store.Durable.config ->
  ?torn:bool ->
  shards:int ->
  dir:string ->
  unit ->
  Sharded_index.t Dsdg_check.Runner.crash

(** [split_kill_sweep ~shards ~dir ~ops ()] builds the collection from
    [ops], then migrates every live document of the fullest shard to
    the emptiest and kills ({!Sharded_index.kill}) at each successive
    kill point of the migration state machine (before/after the meta
    intent record, after the destination insert, after the source
    delete) until one run completes unkilled. After every crash the
    store is reopened and checked with {!Dsdg_check.Runner.verify},
    then a new insert must get the next global id and be served at
    once. [kf_point] reports the kill-point index within the
    migration. [dir] is removed at the end. *)
val split_kill_sweep :
  ?index:Dsdg_core.Index_config.t ->
  ?config:Dsdg_store.Durable.config ->
  ?torn:bool ->
  shards:int ->
  dir:string ->
  ops:Dsdg_check.Trace.op list ->
  unit ->
  Dsdg_check.Runner.kill_outcome
