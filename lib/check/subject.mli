(** A document collection: the one surface every front end drives.

    The paper's problem is one collection under insert, delete,
    search/count and extract. Whatever backs it -- a plain
    {!Dsdg_core.Dynamic_index} ({!of_index}), a store of K >= 1
    shards, a client talking to a served leader or a read-only
    replica -- is this record of closures, built by one
    constructor per backing. The server, {!Runner} and its sweeps, the
    follower, the replication checker and every CLI subcommand drive
    it without knowing what is behind it.

    Query plane: every constructor reads published views
    ({!Dsdg_core.Dynamic_index.query}), so connection threads may query
    while the writer thread mutates. *)

(** Outcome of one mutation of a batch, in batch order. *)
type batch_result = Br_inserted of int | Br_deleted of bool

(** Answer to one replication poll: records up to the stream's durable
    shipping bound, a snapshot bootstrap when the asked-for position
    was compacted away, or a refusal. *)
type repl_reply =
  | Rp_recs of { recs : (int * string) list; bound : int; epoch : int }
  | Rp_snapshot of { path : string; serial : int; bound : int; epoch : int }
  | Rp_error of string

type t = {
  name : string;  (** names the collection in reports and failure messages *)
  apply_batch : Trace.op list -> batch_result list;
      (** the write path: [Insert]/[Delete] ops only, applied in order
          (a durable backing group-commits the batch first) *)
  search : string -> (int * int) list;
      (** [search], [count] raise [Invalid_argument] on the empty
          pattern, like {!Model.search} *)
  count : string -> int;
  extract : doc:int -> off:int -> len:int -> string option;
  mem : int -> bool;
  drain : unit -> unit;
  doc_count : unit -> int;
  total_symbols : unit -> int;
  stats : unit -> (string * int) list;
      (** [docs], [symbols] and [epoch] of the published state, plus
          backing-specific gauges (a sharded collection adds [shards]) *)
  repl : stream:string -> from:int -> repl_reply;  (** serve one replication poll *)
  flush : unit -> unit;
      (** make every logged write durable now (a server's idle hook
          under a lazy sync policy); a no-op without a store *)
  check : unit -> string list;
      (** paper invariants and the published view's census; [[]] means
          healthy *)
  events : unit -> string list;  (** recent structural events, newest first *)
  checkpoint : unit -> unit;  (** snapshot now; a no-op without a store *)
  close : unit -> unit;
  kill : torn:bool -> unit;
      (** crash: abandon the backing without shutdown work ([torn]
          plants a half-written final WAL record); a plain close without
          a store *)
}

(** [apply_batch] of one insert; returns the new document id. *)
val insert : t -> string -> int

(** [apply_batch] of one delete; [false] if the id was not live. *)
val delete : t -> int -> bool

(** [of_index ~name idx]. Queries run on the latest published view
    through {!Dsdg_core.Dynamic_index.query} (on a reader domain when
    [idx] owns readers), so the read plane itself is checked (a stale
    epoch publication becomes a model disagreement). [check] compares
    the view's census with the write plane and runs the {!Oracle}
    invariants. There are no replication streams; [flush] and
    [checkpoint] do nothing and [close]/[kill] are
    {!Dsdg_core.Dynamic_index.close}. *)
val of_index : name:string -> Dsdg_core.Dynamic_index.t -> t
