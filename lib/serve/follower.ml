(* WAL-shipped read replica: bootstrap, tail, reconnect, promote.
   Contracts documented in follower.mli and DESIGN.md section 14. *)

module Trace = Dsdg_check.Trace
module Durable = Dsdg_store.Durable
module Sh = Dsdg_shard.Sharded_index
module Subject = Dsdg_check.Subject
open Dsdg_obs

(* Replay-side half of the shared "repl" scope (the leader's shipping
   counters live in server.ml). *)
let obs = Obs.scope "repl"
let c_replayed = Obs.counter obs "frames_replayed"
let c_reconnects = Obs.counter obs "reconnects"
let c_snap_boots = Obs.counter obs "snapshot_bootstraps"
let g_lag_serials = Obs.gauge obs "lag_serials"
let g_lag_epochs = Obs.gauge obs "lag_epochs"

type lag = {
  lg_serials : int;  (** stream records shipped by the leader but not yet applied *)
  lg_epochs : int;  (** leader shard epochs minus replica shard epochs (summed) *)
  lg_applied : int;  (** records replayed over this follower's lifetime *)
  lg_connected : bool;
}

type t = {
  f_leader : [ `Unix of string | `Tcp of string * int ];
  f_leader_name : string;
  f_dir : string;
  f_poll : float;
  f_stop : bool Atomic.t;
  f_replica : Sh.t;  (* the local replica store; the tail thread is its only writer *)
  f_coll : Subject.t;  (* the replica as a collection *)
  (* shipped-but-unapplied records per shard, queued when a record's
     cross-shard prerequisite has not arrived yet *)
  f_squeues : Trace.op Queue.t array;
  (* stream positions fully applied AND published to the read plane
     (set by the tail thread after each cycle; the store's own WAL
     serial advances before the index apply, so it overshoots) *)
  f_watermark : int array Atomic.t;
  f_applied : int Atomic.t;
  f_lag_serials : int Atomic.t;
  f_lag_epochs : int Atomic.t;
  f_connected : bool Atomic.t;
  f_mu : Mutex.t;
  mutable f_error : string option;
  mutable f_thread : Thread.t option;
}

let leader_name = function
  | `Unix path -> path
  | `Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let fatal t reason =
  Mutex.lock t.f_mu;
  if t.f_error = None then t.f_error <- Some reason;
  Mutex.unlock t.f_mu

let error t =
  Mutex.lock t.f_mu;
  let e = t.f_error in
  Mutex.unlock t.f_mu;
  e

(* --- connecting --- *)

(* Dial the leader, backing off 0.2s doubling to 5s. [attempts = 0]
   retries until [f_stop]. *)
let rec connect_backoff ?(delay = 0.2) ~stop ~attempts addr =
  if Atomic.get stop then None
  else
    match Client.connect ~timeout:10. addr with
    | cl -> Some cl
    | exception Unix.Unix_error _ ->
      if attempts = 1 then None
      else begin
        Thread.delay delay;
        connect_backoff
          ~delay:(Float.min 5.0 (delay *. 2.))
          ~stop
          ~attempts:(max 0 (attempts - 1))
          addr
      end

(* --- applying one poll cycle --- *)

let parse_shipped line =
  match Trace.parse_op line with
  | Ok op -> op
  | Error reason -> failwith (Printf.sprintf "unparseable shipped record %S: %s" line reason)

let check_continuity ~stream ~expect recs =
  List.iteri
    (fun i (serial, _) ->
      if serial <> expect + i then
        failwith
          (Printf.sprintf "stream %s: expected serial %d, leader shipped %d" stream (expect + i)
             serial))
    recs

(* One poll cycle.  Order matters: the shard streams are polled (and
   buffered) BEFORE the meta stream, so every shard record collected
   here became durable before the meta bound we then read -- its
   placement event is inside the meta batch.  K = 1 has no meta stream.

   Applying is a fixpoint over per-shard queues, not a single pass:
   each shard's records replay strictly in serial order, but a record
   whose cross-shard prerequisite is missing (a migration copy whose
   original insert rides another stream -- or rides a later poll: the
   streams are polled at slightly different instants) parks at its
   queue head until progress elsewhere unblocks it.  Prerequisites
   follow the leader's temporal order, so the dependency graph is
   acyclic and the drain cannot livelock; what the fixpoint leaves
   queued is replayed by a later cycle once the missing records ship.

   A snapshot reply means the leader compacted past the replica's
   position: the replica re-seeds from it in place (K = 1 only; see
   {!Sh.replica_snapshot}) and the next cycle resumes at its serial. *)
let cycle t cl =
  let sh = t.f_replica in
  let k = Sh.shards sh in
  let stores = Option.get (Sh.backing_stores sh) in
  (* next wanted serial = applied position + records already queued *)
  let shard_from =
    Array.init k (fun s -> Durable.wal_serial stores.(s) + Queue.length t.f_squeues.(s))
  in
  let shard_rb =
    Array.init k (fun s -> Client.repl cl ~stream:(Printf.sprintf "wal%d" s) ~from:shard_from.(s))
  in
  match Array.find_map (fun rb -> rb.Client.rb_snap) shard_rb with
  | Some (serial, bytes) ->
    Sh.replica_snapshot sh ~serial ~bytes;
    Obs.incr c_snap_boots;
    Atomic.set t.f_watermark (Sh.stream_positions sh);
    1
  | None ->
    Array.iteri
      (fun s rb ->
        check_continuity ~stream:(Printf.sprintf "wal%d" s) ~expect:shard_from.(s)
          rb.Client.rb_recs)
      shard_rb;
    let meta_recs =
      if k = 1 then []
      else begin
        let from = Sh.meta_records sh in
        let rb = Client.repl cl ~stream:"meta" ~from in
        check_continuity ~stream:"meta" ~expect:from rb.Client.rb_recs;
        rb.Client.rb_recs
      end
    in
    (* lag before applying: shipped-but-unapplied records this instant *)
    let pending =
      Array.fold_left ( + ) 0
        (Array.mapi (fun s rb -> rb.Client.rb_bound - Durable.wal_serial stores.(s)) shard_rb)
    in
    Atomic.set t.f_lag_serials pending;
    Obs.set_gauge g_lag_serials pending;
    (* placements first, then drain the record queues to a fixpoint *)
    List.iter (fun (_, line) -> Sh.replica_meta sh line) meta_recs;
    Array.iteri
      (fun s rb ->
        List.iter (fun (_, line) -> Queue.add (parse_shipped line) t.f_squeues.(s)) rb.Client.rb_recs)
      shard_rb;
    let n = ref (List.length meta_recs) in
    let progress = ref true in
    while !progress do
      progress := false;
      Array.iteri
        (fun s q ->
          let applied = Sh.replica_ops sh ~shard:s q in
          n := !n + applied;
          if applied > 0 then progress := true)
        t.f_squeues
    done;
    if !n > 0 then begin
      Obs.add c_replayed !n;
      ignore (Atomic.fetch_and_add t.f_applied !n)
    end;
    (* shard epochs only: the leader's mapping version advances once per
       batch, the replica's once per replayed record *)
    let leader_epoch = Array.fold_left (fun acc rb -> acc + rb.Client.rb_epoch) 0 shard_rb in
    let local_epoch = Array.fold_left ( + ) 0 (Array.sub (Sh.epoch_vector sh) 0 k) in
    Atomic.set t.f_lag_epochs (leader_epoch - local_epoch);
    Obs.set_gauge g_lag_epochs (max 0 (leader_epoch - local_epoch));
    Atomic.set t.f_watermark (Sh.stream_positions sh);
    !n

(* --- the tail loop --- *)

let loop t () =
  let cl = ref None in
  let disconnect c =
    (try Client.close c with Unix.Unix_error _ | Client.Protocol_error _ -> ());
    cl := None;
    Atomic.set t.f_connected false
  in
  while (not (Atomic.get t.f_stop)) && error t = None do
    match !cl with
    | None -> (
      match connect_backoff ~stop:t.f_stop ~attempts:0 t.f_leader with
      | None -> ()
      | Some c ->
        cl := Some c;
        Atomic.set t.f_connected true)
    | Some c -> (
      match cycle t c with
      | 0 -> Thread.delay t.f_poll
      | _ -> ()
      | exception Client.Server_error reason ->
        (* the leader refused the stream: configuration, not transport *)
        fatal t reason
      | exception Failure reason -> fatal t reason
      | exception (Unix.Unix_error _ | Client.Protocol_error _) ->
        disconnect c;
        Obs.incr c_reconnects)
  done;
  match !cl with Some c -> disconnect c | None -> ()

(* --- bootstrap + lifecycle --- *)

let start ?(config = Durable.default_config) ?index ?(poll = 0.02) ?(connect_attempts = 25)
    ~leader ~dir () =
  let cl =
    match connect_backoff ~stop:(Atomic.make false) ~attempts:connect_attempts leader with
    | Some cl -> cl
    | None -> failwith (Printf.sprintf "cannot reach leader at %s" (leader_name leader))
  in
  let shards =
    Fun.protect
      ~finally:(fun () -> Client.close cl)
      (fun () -> Option.value (List.assoc_opt "shards" (Client.stats cl)) ~default:1)
  in
  (* open (or create) the replica layout; a directory seeded from a
     pinned backup recovers to the pinned prefix and the streams resume
     from the recovered serials.  A fresh K = 1 replica whose leader
     already compacted is seeded by the first cycle's snapshot reply. *)
  let sh, _infos = Sh.open_store ~config ?index ~shards ~dir () in
  let t =
    {
      f_leader = leader;
      f_leader_name = leader_name leader;
      f_dir = dir;
      f_poll = Float.max 0.001 poll;
      f_stop = Atomic.make false;
      f_replica = sh;
      f_coll = Sh.subject ~name:"replica" sh;
      f_squeues = Array.init shards (fun _ -> Queue.create ());
      f_watermark = Atomic.make (Sh.stream_positions sh);
      f_applied = Atomic.make 0;
      f_lag_serials = Atomic.make 0;
      f_lag_epochs = Atomic.make 0;
      f_connected = Atomic.make false;
      f_mu = Mutex.create ();
      f_error = None;
      f_thread = None;
    }
  in
  t.f_thread <- Some (Thread.create (loop t) ());
  t

let dir t = t.f_dir

let replica t = t.f_coll

let watermark t = Atomic.get t.f_watermark

let lag t =
  {
    lg_serials = Atomic.get t.f_lag_serials;
    lg_epochs = Atomic.get t.f_lag_epochs;
    lg_applied = Atomic.get t.f_applied;
    lg_connected = Atomic.get t.f_connected;
  }

let join_tail t =
  Atomic.set t.f_stop true;
  (match t.f_thread with Some th -> Thread.join th | None -> ());
  t.f_thread <- None

let detach t =
  join_tail t;
  t.f_coll

let stop t =
  join_tail t;
  t.f_coll.close ()

let kill t ~torn =
  join_tail t;
  t.f_coll.kill ~torn

(* --- serving the replica --- *)

let read_only t =
  let leader = t.f_leader_name in
  {
    t.f_coll with
    Subject.name = "replica of " ^ leader;
    apply_batch =
      (fun _ ->
        raise (Server.Redirect (Printf.sprintf "read-only replica; the leader is %s" leader)));
    drain = ignore;
    stats =
      (fun () ->
        let l = lag t in
        t.f_coll.stats ()
        @ [
            ("lag_serials", l.lg_serials);
            ("lag_epochs", l.lg_epochs);
            ("replayed", l.lg_applied);
            ("connected", if l.lg_connected then 1 else 0);
          ]);
    repl =
      (fun ~stream:_ ~from:_ -> Subject.Rp_error "replicas do not ship streams; poll the leader");
    (* the tail thread owns the store's write plane *)
    flush = ignore;
    checkpoint = ignore;
    close = (fun () -> stop t);
    kill = (fun ~torn -> kill t ~torn);
  }
