(** Kill-and-recover differential checking.

    For each kill point [k] along an operation sequence, this harness
    runs the first [k] operations through a {!Durable} store, crashes
    it ({!Durable.kill}, optionally with the planted torn-write fault),
    recovers from the directory, and compares the recovered index
    against the {!Dsdg_check.Model} driven over the same prefix --
    membership, extraction of every live document, document counts and
    sampled pattern searches. It then replays the {e remaining}
    operations on both and re-verifies, so a recovery that is correct
    at rest but leaves broken schedule state (wrong nf, wrong cleaning
    counter, resurrectable ids) is caught by the continuation.

    This is the persistence analogue of [Dsdg_check.Runner]: same
    model, same trace currency, crash faults instead of scheduling
    faults. *)

type failure = {
  kf_point : int;  (** kill point: ops applied before the crash *)
  kf_detail : string;
}

type outcome = {
  kc_points : int;  (** kill points exercised *)
  kc_failures : failure list;  (** empty = every recovery checked out *)
}

(** One-line summary, failures included. *)
val outcome_to_string : outcome -> string

(** [sweep ~dir ~ops ()] exercises kill points [0, stride, 2*stride,
    ..., length ops]. [dir] is scratch space, wiped per point. [index]
    configures every store the sweep opens. [torn]
    (default [true]) plants the half-written final record. [config]
    defaults to fsync-always with a checkpoint every 7 updates, so the
    sweep crosses snapshot installs as well as pure WAL tails. *)
val sweep :
  ?index:Dsdg_core.Index_config.t ->
  ?config:Durable.config ->
  ?torn:bool ->
  ?stride:int ->
  dir:string ->
  ops:Dsdg_check.Trace.op list ->
  unit ->
  outcome

(** Remove a scratch directory tree (no-op if absent). Exposed for the
    CLI and tests that manage their own store directories. *)
val reset_dir : string -> unit

(** The differential verifier the sweep applies after each recovery:
    census, membership + full-text extraction of every live document,
    dead-id resurrection, sampled searches -- all against the model.
    Returns human-readable discrepancies (empty = converged). Exposed
    so the replication checkers ([Dsdg_serve.Repl_check]) apply the
    same oracle to promoted followers. *)
val verify :
  label:string -> Dsdg_core.Dynamic_index.t -> Dsdg_check.Model.t -> inserts:int -> string list
