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

(* One poll cycle, shard stream by shard stream.  A shipped record
   already names its shard's local ids, so the streams need no order
   among them: shard s's records land as one group commit of replica
   shard s.  A snapshot reply means the leader compacted past that
   shard's position on the replica: the shard re-seeds from it in place
   ({!Sh.replica_snapshot}) and its next poll resumes at its serial. *)
let cycle t cl =
  let sh = t.f_replica in
  let n = ref 0 and pending = ref 0 and leader_epoch = ref 0 in
  let positions = Sh.wal_serials sh in
  for s = 0 to Sh.shards sh - 1 do
    let stream = Printf.sprintf "wal%d" s and from = positions.(s) in
    let rb = Client.repl cl ~stream ~from in
    leader_epoch := !leader_epoch + rb.Client.rb_epoch;
    match rb.Client.rb_snap with
    | Some (serial, bytes) ->
      Sh.replica_snapshot sh ~shard:s ~serial ~bytes;
      Obs.incr c_snap_boots;
      incr n
    | None ->
      check_continuity ~stream ~expect:from rb.Client.rb_recs;
      pending := !pending + (rb.Client.rb_bound - from);
      Sh.replica_ops sh ~shard:s (List.map (fun (_, line) -> parse_shipped line) rb.Client.rb_recs);
      n := !n + List.length rb.Client.rb_recs
  done;
  (* lag as of the polls: shipped-but-unapplied records then *)
  Atomic.set t.f_lag_serials !pending;
  Obs.set_gauge g_lag_serials !pending;
  if !n > 0 then begin
    Obs.add c_replayed !n;
    ignore (Atomic.fetch_and_add t.f_applied !n)
  end;
  let local_epoch = Array.fold_left ( + ) 0 (Sh.epoch_vector sh) in
  Atomic.set t.f_lag_epochs (!leader_epoch - local_epoch);
  Obs.set_gauge g_lag_epochs (max 0 (!leader_epoch - local_epoch));
  Atomic.set t.f_watermark (Sh.wal_serials sh);
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
     from the recovered serials.  A fresh replica whose leader already
     compacted is seeded shard by shard by the first cycle's snapshot
     replies. *)
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
      f_watermark = Atomic.make (Sh.wal_serials sh);
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
