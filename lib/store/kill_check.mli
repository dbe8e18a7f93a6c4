(** The crash that the kill-and-recover sweep
    ({!Dsdg_check.Runner.sweep}) drives on a durable store.

    For each kill point [k] along an op stream the sweep runs the first
    [k] ops through a {!Durable} store, crashes it ({!Durable.kill},
    optionally with the planted torn-write fault), recovers from the
    directory and verifies the recovered store ({!Durable.subject})
    against the model. It then replays the remaining ops on both and
    verifies again. *)

(** The sweeps' store settings: fsync-always and a checkpoint every 7
    updates, so a sweep crosses snapshot installs as well as pure WAL
    tails. *)
val default_config : Durable.config

(** [crash ~dir ()]: open a {!Durable} store in [dir] with [index] and
    [config], crash it with {!Durable.kill} ([torn], default [true],
    plants a half-written final record), reopen through recovery. *)
val crash :
  ?index:Dsdg_core.Index_config.t ->
  ?config:Durable.config ->
  ?torn:bool ->
  dir:string ->
  unit ->
  Durable.t Dsdg_check.Runner.crash
