(** The network service plane: a socket server in front of a durable
    {!Dsdg_core.Dynamic_index}.

    One thread per connection parses {!Protocol} frames. Queries run
    against the latest epoch-published view -- dispatched to the
    reader-domain pool when the index was opened with [readers >= 1],
    wait-free inline otherwise -- so they never contend with writes.
    Mutations are funneled through a batching queue to a single writer
    thread that drains up to [max_batch] pending requests at a time and
    commits them as a group: one {!Dsdg_store.Wal.append_batch} (one
    fsync under [Always]) covers the whole batch before any client sees
    an acknowledgment, amortizing the dominant fsync cost across
    concurrent writers without weakening durability.

    Robustness: per-connection read/write timeouts ([SO_RCVTIMEO] /
    [SO_SNDTIMEO]), a frame-size bound, a connection cap, and a bound
    on the write queue (backpressure: a connection thread blocks in
    [enqueue] until the writer drains). A malformed or overlong frame
    gets an [err] response and its connection closed; the server keeps
    serving everyone else. {!stop} is the graceful drain: close the
    listener, shut down connection receive sides, finish in-flight
    requests, flush the write queue, checkpoint, close the store.

    Observability lands in the registered scope ["serve"]:
    [conns_accepted/_rejected/_closed], [frames], [frames_bad],
    [queries], [writes], [batches], [conns_open] gauge, and
    [batch_size] / [flush_ns] (group-commit WAL latency) /
    [request_ns] histograms. *)

type config = {
  max_frame : int;  (** request/response frame size bound, bytes (default 1 MiB) *)
  max_batch : int;  (** writes per group commit; [1] = per-op fsync (default 256) *)
  max_conns : int;  (** concurrent connections before accepts are rejected (default 1024) *)
  read_timeout : float;  (** seconds a connection may sit idle mid-read; [0.] = forever *)
  write_timeout : float;  (** seconds a response write may block; [0.] = forever *)
}

val default_config : config

(** Where to listen. [`Tcp (host, 0)] picks an ephemeral port --
    read it back with {!port}. *)
type listen = [ `Unix of string | `Tcp of string * int ]

type t

(** What the server fronts: batch apply for the writer thread,
    view-plane queries, a stats snapshot, lifecycle. Build one with
    {!engine_of_store} or {!engine_of_sharded}. *)
type engine

(** A plain single-index durable store. *)
val engine_of_store : Dsdg_store.Durable.t -> engine

(** A sharded store: the writer thread fans each drained batch across
    the shard WALs through {!Dsdg_shard.Sharded_index.apply_batch} --
    placements group-committed to the meta log first, then one WAL
    append + fsync per shard -- and queries scatter-gather across the
    shard views. *)
val engine_of_sharded : Dsdg_shard.Sharded_index.t -> engine

(** Raised by a read-only engine's write path; registered to print as
    its payload, so the wire carries exactly the redirect message. *)
exception Redirect of string

(** A read-only replica engine ({!Follower} builds one). Queries and
    stats go to [current ()], the {!engine_of_store} or
    {!engine_of_sharded} of the replica store as it is at the time of
    the call, with [stats ()] appended to the stats. Every mutation is
    refused with {!Redirect} naming [leader], [repl] polls are refused
    (replicas do not ship streams), checkpoint is a no-op -- the tail
    thread owns the store's write plane -- and [close]/[kill] are the
    caller's teardown hooks. *)
val engine_readonly :
  current:(unit -> engine) ->
  leader:string ->
  stats:(unit -> (string * int) list) ->
  close:(unit -> unit) ->
  kill:(torn:bool -> unit) ->
  engine

(** [start ~config ~store listen] binds, spawns the accept loop and the
    group-commit writer, and returns immediately. The server owns
    [store] from here on: {!stop} checkpoints and closes it. Raises
    [Unix.Unix_error] if the address cannot be bound. *)
val start : ?config:config -> store:Dsdg_store.Durable.t -> listen -> t

(** Generalized {!start} over any {!engine} (sharded stores via
    {!engine_of_sharded}); [start ~store] is
    [start_engine ~engine:(engine_of_store store)]. *)
val start_engine : ?config:config -> engine:engine -> listen -> t

(** The bound TCP port ([None] for Unix-socket servers). *)
val port : t -> int option

(** Ask the server to begin shutting down without waiting for it --
    safe to call from a signal handler ({!stop} and {!wait} pick it
    up). Idempotent. *)
val request_stop : t -> unit

(** Block until {!request_stop} has been called (by a signal handler or
    another thread), without performing the shutdown. *)
val wait : t -> unit

(** Graceful drain, synchronous: {!request_stop}, close the listener,
    stop reading from open connections, join every connection thread,
    flush the write queue through a final group commit, checkpoint the
    store and close it. Idempotent. *)
val stop : t -> unit

(** Crash simulation for the kill-and-recover harness: abandon the
    sockets and the store with no drain, no checkpoint, no final fsync
    ({!Dsdg_store.Durable.kill}); [torn] plants a half-written final
    WAL record. Every mutation acknowledged to a client before the
    kill must survive {!Dsdg_store.Recovery.open_or_recover} -- the
    group-commit guarantee the server-path kill test pins down. *)
val kill : t -> torn:bool -> unit

(** Lifetime op count (successfully answered request frames). *)
val ops_served : t -> int
