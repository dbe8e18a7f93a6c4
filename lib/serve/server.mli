(** The network service plane: a socket server in front of one
    collection ({!Dsdg_check.Subject.t}: a store of K >= 1 shards, a
    read-only replica).

    One thread per connection parses {!Protocol} frames. Queries run
    against the latest epoch-published view -- dispatched to the
    reader-domain pool when the index was opened with [readers >= 1],
    wait-free inline otherwise -- so they never contend with writes.
    Mutations are funneled through a batching queue to a single writer
    thread that drains up to [max_batch] pending requests at a time and
    commits them as a group through the collection's [apply_batch]:
    for a durable store one {!Dsdg_store.Wal.append_batch} (one fsync
    under [Always]) covers the whole batch before any client sees an
    acknowledgment, amortizing the dominant fsync cost across
    concurrent writers without weakening durability.  A replication
    poll asks the writer to call the collection's [flush] once its
    queue is empty, so under a lazy [--sync N] policy an idle leader's
    acked tail still becomes durable and ships on a later poll; with
    no follower polling, [--sync N] keeps its amortized fsyncs.

    Robustness: a per-connection socket timeout ([SO_RCVTIMEO] and
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
  timeout : float;
      (** seconds a connection may sit idle mid-read, and a response
          write may block; [0.] = forever (default 30) *)
}

val default_config : config

(** Where to listen. [`Tcp (host, 0)] picks an ephemeral port --
    read it back with {!port}. *)
type listen = [ `Unix of string | `Tcp of string * int ]

type t

(** Raised by a read-only replica's write path ({!Follower.read_only});
    registered to print as its payload, so the wire carries exactly the
    redirect message. *)
exception Redirect of string

(** [start ~config coll listen] binds, spawns the accept loop and the
    group-commit writer, and returns immediately. The server owns
    [coll] from here on: {!stop} checkpoints and closes it, {!kill}
    kills it. Raises [Unix.Unix_error] if the address cannot be
    bound. *)
val start : ?config:config -> Dsdg_check.Subject.t -> listen -> t

(** [start_engine ~engine] is [start engine], and [engine_of_sharded]
    is {!Dsdg_shard.Sharded_index.subject}; both names are kept for
    existing callers. *)
val start_engine : ?config:config -> engine:Dsdg_check.Subject.t -> listen -> t

val engine_of_sharded : Dsdg_shard.Sharded_index.t -> Dsdg_check.Subject.t

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
    collection and close it. Idempotent. *)
val stop : t -> unit

(** Crash simulation for the kill-and-recover harness: abandon the
    sockets and the collection with no drain, no checkpoint, no final
    fsync (its [kill]); [torn] plants a half-written final
    WAL record. Every mutation acknowledged to a client before the
    kill must survive {!Dsdg_store.Recovery.open_or_recover} -- the
    group-commit guarantee the server-path kill test pins down. *)
val kill : t -> torn:bool -> unit

(** Lifetime op count (successfully answered request frames). *)
val ops_served : t -> int
