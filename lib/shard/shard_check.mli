(** Sharded collections as differential subjects, and the crashes the
    kill sweeps drive.

    {!subjects} puts K-shard collections into the {!Dsdg_check.Runner}
    matrix next to the plain index, so a sharded collection must answer
    every op exactly as the model does. {!crash} is the store, at any
    K, for {!Dsdg_check.Runner.sweep}: at K = 1 it is the single-store
    layout. *)

(** One in-memory {!Sharded_index.subject} per shard count, named
    ["<name> K=<k>"] and built with [index]. *)
val subjects :
  index:Dsdg_core.Index_config.t -> name:string -> int list -> (unit -> Dsdg_check.Subject.t) list

(** The sweeps' store settings: fsync-always and a checkpoint every 7
    updates, so a sweep crosses snapshot installs as well as pure WAL
    tails. *)
val default_config : Dsdg_store.Durable.config

(** [crash ~shards ~dir ()]: a store of [shards] shards under [dir],
    crashed with {!Sharded_index.kill} ([torn], default [true], plants
    a half-written final record in each shard WAL). Reopening recovers
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
