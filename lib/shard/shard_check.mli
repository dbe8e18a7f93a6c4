(** Shard-aware differential checking: fan one op stream over shard
    counts.

    The in-memory matrix ({!run_trace} / {!run_stream}) drives the
    same trace through the naive {!Dsdg_check.Model}, a plain K=1
    {!Dsdg_core.Dynamic_index} baseline, and a {!Sharded_index} per
    configured shard count, comparing {e every} answer -- insert ids,
    delete outcomes, search/count/extract/mem including the uniform
    empty-pattern rejection -- against both the model and the baseline,
    so a sharded collection must be byte-identical to the K=1 index it
    partitions.  Periodic {!Sharded_index.rebalance_hottest} churn
    keeps document migration inside the checked region.  Failing
    streams are delta-debugged with {!Dsdg_check.Runner.shrink_ops}.

    The durable sweeps are the persistence analogue, mirroring
    {!Dsdg_store.Kill_check}: {!kill_sweep} crashes a sharded store at
    every stride along the trace (crossing checkpoint installs, with
    completed migrations in the meta log on odd points) and verifies
    every recovery against the model; {!split_kill_sweep} kills
    mid-migration at {e every} kill-point of the split state machine
    and asserts the recovered shards re-serve every acknowledged write
    exactly once -- no loss, no duplication across shards. *)

type config = {
  sc_index : Dsdg_core.Index_config.t;
      (** settings of the K=1 baseline and of every shard; [readers > 0]
          routes queries through views *)
  sc_shard_counts : int list;  (** K values under test (default [[1; 2; 4]]) *)
}

(** {!Dsdg_check.Runner.default_config}'s index settings over the
    [Amortized] variant, K in [{1, 2, 4}]. *)
val default_config : config

type failure = {
  sf_step : int;  (** 1-based index of the failing op *)
  sf_shards : int;  (** shard count of the disagreeing index (1 = baseline) *)
  sf_op : Dsdg_check.Trace.op;
  sf_message : string;
}

(** Run a trace through model + baseline + every configured shard
    count; [Error] carries the first disagreement. *)
val run_trace : ?config:config -> Dsdg_check.Trace.op list -> (unit, failure) result

(** {!Dsdg_check.Runner.shrink_ops} against {!run_trace}. *)
val shrink : ?config:config -> ?max_runs:int -> Dsdg_check.Trace.op list -> Dsdg_check.Trace.op list

type stream_outcome =
  | Pass
  | Fail of {
      failure : failure;
      trace : Dsdg_check.Trace.op list;
      shrunk : Dsdg_check.Trace.op list;
    }

(** Generate (from [seed]), run, shrink on failure. *)
val run_stream :
  ?config:config ->
  ?profile:Dsdg_check.Opgen.profile ->
  ?shrink_budget:int ->
  seed:int ->
  ops:int ->
  unit ->
  stream_outcome

(** Human-readable failure report (minimal trace included). *)
val report : ?seed:int -> failure:failure -> shrunk:Dsdg_check.Trace.op list -> unit -> string

(** {1 Durable sweeps} *)

(** [kill_sweep ~shards ~dir ~ops ()] exercises kill points [0,
    stride, ...] along [ops] against a sharded store under [dir]
    (scratch, wiped per point): apply the prefix (with a completed
    hot-shard rebalance on odd points), crash with {!Sharded_index.kill}
    ([torn] defaults to [true]), recover -- in parallel on 2 executor
    workers when K > 1 -- and differentially verify membership,
    extraction, counts and sampled searches against the model; then
    replay the remaining ops and re-verify.  Outcome/failure types are
    shared with {!Dsdg_store.Kill_check} ([kf_point] = ops applied
    before the crash). *)
val kill_sweep :
  ?index:Dsdg_core.Index_config.t ->
  ?config:Dsdg_store.Durable.config ->
  ?torn:bool ->
  ?stride:int ->
  shards:int ->
  dir:string ->
  ops:Dsdg_check.Trace.op list ->
  unit ->
  Dsdg_store.Kill_check.outcome

(** [split_kill_sweep ~shards ~dir ~ops ()] builds the collection from
    [ops], then migrates every live document of the fullest shard to
    the emptiest and kills ({!Sharded_index.kill}) at each successive
    kill point of the migration state machine (before/after the meta
    intent record, after the destination insert, after the source
    delete) until one run completes unkilled.  After every crash the
    store is reopened and checked against the model: every acknowledged
    write served exactly once, correct global-id continuation for new
    inserts.  [kf_point] reports the kill-point index within the
    migration. *)
val split_kill_sweep :
  ?index:Dsdg_core.Index_config.t ->
  ?config:Dsdg_store.Durable.config ->
  ?torn:bool ->
  shards:int ->
  dir:string ->
  ops:Dsdg_check.Trace.op list ->
  unit ->
  Dsdg_store.Kill_check.outcome
