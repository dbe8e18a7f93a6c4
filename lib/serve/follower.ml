(* WAL-shipped read replica: bootstrap, tail, reconnect, promote.
   Contracts documented in follower.mli and DESIGN.md section 14. *)

module Trace = Dsdg_check.Trace
module Di = Dsdg_core.Dynamic_index
module Durable = Dsdg_store.Durable
module Recovery = Dsdg_store.Recovery
module Snapshot = Dsdg_store.Snapshot
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

(* The local replica store.  Private to the tail loop: the two
   leader shapes speak different replication protocols. *)
type replica = R_single of Durable.t | R_sharded of Sh.t

type lag = {
  lg_serials : int;  (** stream records shipped by the leader but not yet applied *)
  lg_epochs : int;  (** leader composite epoch minus replica composite epoch *)
  lg_applied : int;  (** records replayed over this follower's lifetime *)
  lg_connected : bool;
}

type t = {
  f_leader : [ `Unix of string | `Tcp of string * int ];
  f_leader_name : string;
  f_dir : string;
  f_poll : float;
  f_stop : bool Atomic.t;
  mutable f_replica : replica;  (* replaced only by the tail thread (re-seed) *)
  mutable f_coll : Subject.t;  (* the replica as a collection; swapped with it *)
  (* reopen the single-store replica with the original open parameters
     (None for sharded replicas: those re-seed from pinned backups) *)
  f_reopen : (unit -> Durable.t) option;
  (* sharded only: shipped-but-unapplied records per shard, queued when
     a record's cross-shard prerequisite has not arrived yet *)
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

let current_watermark = function
  | R_single st -> [| Durable.wal_serial st |]
  | R_sharded sh -> Sh.stream_positions sh

let coll_of = function
  | R_single st -> Durable.subject ~name:"replica" st
  | R_sharded sh -> Sh.subject ~name:"replica" sh

let check_continuity ~stream ~expect recs =
  List.iteri
    (fun i (serial, _) ->
      if serial <> expect + i then
        failwith
          (Printf.sprintf "stream %s: expected serial %d, leader shipped %d" stream (expect + i)
             serial))
    recs

(* Install a snapshot shipped by the leader as the directory's newest;
   recovery then starts at its serial. *)
let install_snapshot ~dir ~serial ~bytes =
  Snapshot.ensure_dir dir;
  let path = Snapshot.path_for ~dir ~wal_serial:serial in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
  Obs.incr c_snap_boots

(* The replica fell behind the leader's checkpoint compaction: the gap
   is gone from the leader's WAL, but the reply carried a full snapshot
   covering it.  Rebuild the replica from that snapshot -- close, wipe
   the local WAL + snapshots, install the shipped one, reopen -- and
   resume tailing from its serial.  Exactly the fresh-bootstrap path,
   applied mid-life. *)
let reseed_single t st ~serial ~bytes =
  let reopen =
    match t.f_reopen with Some r -> r | None -> assert false (* single stores only *)
  in
  Durable.close st;
  let dir = t.f_dir in
  List.iter
    (fun (p, _) -> try Sys.remove p with Sys_error _ -> ())
    (Snapshot.list ~dir);
  let wal = Recovery.wal_path ~dir in
  List.iter
    (fun (p, _) -> try Sys.remove p with Sys_error _ -> ())
    (Dsdg_store.Wal.archives wal);
  if Sys.file_exists wal then Sys.remove wal;
  install_snapshot ~dir ~serial ~bytes;
  let st' = reopen () in
  Mutex.lock t.f_mu;
  t.f_replica <- R_single st';
  t.f_coll <- coll_of t.f_replica;
  Mutex.unlock t.f_mu;
  Atomic.set t.f_watermark (current_watermark (R_single st'))

(* One poll of a single-store leader: fetch the WAL tail from the local
   serial, apply it as one group-committed batch.  Returns the number
   of records applied. *)
let cycle_single t st cl =
  let from = Durable.wal_serial st in
  let rb = Client.repl cl ~stream:"wal" ~from in
  match rb.Client.rb_snap with
  | Some (serial, bytes) ->
    reseed_single t st ~serial ~bytes;
    1 (* progress: next cycle resumes from the snapshot's serial *)
  | None ->
  check_continuity ~stream:"wal" ~expect:from rb.Client.rb_recs;
  Obs.set_gauge g_lag_serials (rb.Client.rb_bound - from);
  Atomic.set t.f_lag_serials (rb.Client.rb_bound - from);
  let ops = List.map (fun (_, line) -> parse_shipped line) rb.Client.rb_recs in
  let n = List.length ops in
  if n > 0 then begin
    ignore (Durable.apply_batch st ops);
    Obs.add c_replayed n;
    ignore (Atomic.fetch_and_add t.f_applied n)
  end;
  let local_epoch = Di.view_epoch (Di.view (Durable.index st)) in
  Atomic.set t.f_lag_epochs (rb.Client.rb_epoch - local_epoch);
  Obs.set_gauge g_lag_epochs (max 0 (rb.Client.rb_epoch - local_epoch));
  Atomic.set t.f_watermark [| Durable.wal_serial st |];
  n

(* One poll of a sharded leader.  Order matters: the shard streams are
   polled (and buffered) BEFORE the meta stream, so every shard record
   collected here became durable before the meta bound we then read --
   its placement event is inside the meta batch.

   Applying is a fixpoint over per-shard queues, not a single pass:
   each shard's records replay strictly in serial order, but a record
   whose cross-shard prerequisite is missing (a migration copy whose
   original insert rides another stream -- or rides a later poll: the
   streams are polled at slightly different instants) parks at its
   queue head until progress elsewhere unblocks it.  Prerequisites
   follow the leader's temporal order, so the dependency graph is
   acyclic and the drain cannot livelock; what the fixpoint leaves
   queued is replayed by a later cycle once the missing records ship. *)
let cycle_sharded t sh cl =
  let k = Sh.shards sh in
  let stores =
    match Sh.backing_stores sh with
    | Some s -> s
    | None -> failwith "sharded replica has no backing stores"
  in
  (* next wanted serial = applied position + records already queued *)
  let shard_from =
    Array.init k (fun s -> Durable.wal_serial stores.(s) + Queue.length t.f_squeues.(s))
  in
  let shard_rb =
    Array.init k (fun s ->
        let rb = Client.repl cl ~stream:(Printf.sprintf "wal%d" s) ~from:shard_from.(s) in
        if rb.Client.rb_snap <> None then
          failwith "replica fell behind leader compaction; re-seed it from a pinned backup";
        check_continuity ~stream:(Printf.sprintf "wal%d" s) ~expect:shard_from.(s)
          rb.Client.rb_recs;
        rb)
  in
  let meta_from = Sh.meta_records sh in
  let meta_rb = Client.repl cl ~stream:"meta" ~from:meta_from in
  check_continuity ~stream:"meta" ~expect:meta_from meta_rb.Client.rb_recs;
  (* lag before applying: shipped-but-unapplied records this instant *)
  let pending =
    Array.fold_left ( + ) 0
      (Array.mapi (fun s rb -> rb.Client.rb_bound - Durable.wal_serial stores.(s)) shard_rb)
  in
  Atomic.set t.f_lag_serials pending;
  Obs.set_gauge g_lag_serials pending;
  (* placements first, then drain the record queues to a fixpoint *)
  List.iter (fun (_, line) -> Sh.replica_meta sh line) meta_rb.Client.rb_recs;
  Array.iteri
    (fun s rb ->
      List.iter (fun (_, line) -> Queue.add (parse_shipped line) t.f_squeues.(s)) rb.Client.rb_recs)
    shard_rb;
  let n = ref (List.length meta_rb.Client.rb_recs) in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iteri
      (fun s q ->
        let blocked = ref false in
        while (not !blocked) && not (Queue.is_empty q) do
          if Sh.replica_op sh ~shard:s (Queue.peek q) then begin
            ignore (Queue.pop q);
            incr n;
            progress := true
          end
          else blocked := true
        done)
      t.f_squeues
  done;
  if !n > 0 then begin
    Obs.add c_replayed !n;
    ignore (Atomic.fetch_and_add t.f_applied !n)
  end;
  let leader_epoch =
    Array.fold_left (fun acc rb -> acc + rb.Client.rb_epoch) meta_rb.Client.rb_epoch shard_rb
  in
  let local_epoch = Array.fold_left ( + ) 0 (Sh.epoch_vector sh) in
  Atomic.set t.f_lag_epochs (leader_epoch - local_epoch);
  Obs.set_gauge g_lag_epochs (max 0 (leader_epoch - local_epoch));
  Atomic.set t.f_watermark (current_watermark (R_sharded sh));
  !n

let cycle t cl =
  match t.f_replica with R_single st -> cycle_single t st cl | R_sharded sh -> cycle_sharded t sh cl

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

let fresh_dir dir =
  (not (Sys.file_exists dir))
  || ((not (Sys.file_exists (Recovery.wal_path ~dir))) && Snapshot.list ~dir = [])

let start ?(config = Durable.default_config) ?index ?(poll = 0.02) ?(connect_attempts = 25)
    ~leader ~dir () =
  let cl =
    match connect_backoff ~stop:(Atomic.make false) ~attempts:connect_attempts leader with
    | Some cl -> cl
    | None -> failwith (Printf.sprintf "cannot reach leader at %s" (leader_name leader))
  in
  let reopen () = fst (Durable.open_ ~config ?index ~dir ()) in
  let replica, reopen_opt =
    Fun.protect
      ~finally:(fun () -> Client.close cl)
      (fun () ->
        let shards =
          match List.assoc_opt "shards" (Client.stats cl) with
          | Some k when k > 1 -> Some k
          | _ -> None
        in
        match shards with
        | None ->
          (* single store.  A fresh replica asks from 0; if the leader
             already compacted, the reply is a snapshot bootstrap:
             install it and let recovery start at its serial. *)
          if fresh_dir dir then begin
            let rb = Client.repl cl ~stream:"wal" ~from:0 in
            match rb.Client.rb_snap with
            | Some (serial, bytes) -> install_snapshot ~dir ~serial ~bytes
            | None -> ()
          end;
          (R_single (reopen ()), Some reopen)
        | Some k ->
          (* sharded: open (or create) the replica layout; a directory
             seeded from a pinned backup recovers to the pinned prefix
             and the streams resume from the recovered serials *)
          let sh, _infos = Sh.open_store ~config ?index ~shards:k ~dir () in
          (R_sharded sh, None))
  in
  let t =
    {
      f_leader = leader;
      f_leader_name = leader_name leader;
      f_dir = dir;
      f_poll = Float.max 0.001 poll;
      f_stop = Atomic.make false;
      f_replica = replica;
      f_coll = coll_of replica;
      f_reopen = reopen_opt;
      f_squeues =
        (match replica with
        | R_single _ -> [||]
        | R_sharded sh -> Array.init (Sh.shards sh) (fun _ -> Queue.create ()));
      f_watermark = Atomic.make (current_watermark replica);
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

(* The replica as a collection; a single-store follower swaps it when
   it re-seeds after falling behind leader compaction, so read it fresh
   rather than caching it across polls. *)
let replica t =
  Mutex.lock t.f_mu;
  let c = t.f_coll in
  Mutex.unlock t.f_mu;
  c

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

(* Every call re-resolves the replica: a re-seed swaps the store handle
   out from under a serving replica. *)
let read_only t =
  let cur () = replica t in
  let leader = t.f_leader_name in
  {
    Subject.name = "replica of " ^ leader;
    apply_batch =
      (fun _ ->
        raise (Server.Redirect (Printf.sprintf "read-only replica; the leader is %s" leader)));
    search = (fun p -> (cur ()).search p);
    count = (fun p -> (cur ()).count p);
    extract = (fun ~doc ~off ~len -> (cur ()).extract ~doc ~off ~len);
    mem = (fun id -> (cur ()).mem id);
    drain = ignore;
    doc_count = (fun () -> (cur ()).doc_count ());
    total_symbols = (fun () -> (cur ()).total_symbols ());
    stats =
      (fun () ->
        let l = lag t in
        (cur ()).stats ()
        @ [
            ("lag_serials", l.lg_serials);
            ("lag_epochs", l.lg_epochs);
            ("replayed", l.lg_applied);
            ("connected", if l.lg_connected then 1 else 0);
          ]);
    repl =
      (fun ~stream:_ ~from:_ -> Subject.Rp_error "replicas do not ship streams; poll the leader");
    check = (fun () -> (cur ()).check ());
    events = (fun () -> (cur ()).events ());
    (* the tail thread owns the store's write plane *)
    checkpoint = ignore;
    close = (fun () -> stop t);
    kill = (fun ~torn -> kill t ~torn);
  }
