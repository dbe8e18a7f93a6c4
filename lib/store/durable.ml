(* Durable index wrapper: WAL-ahead updates, checkpoint scheduling,
   crash simulation.  Contracts documented in durable.mli and DESIGN.md
   section 10. *)

module Di = Dsdg_core.Dynamic_index
module Trace = Dsdg_check.Trace
module Exec = Dsdg_exec.Executor
module Subject = Dsdg_check.Subject
open Dsdg_obs

let obs = Obs.scope "store"
let c_checkpoints = Obs.counter obs "checkpoints"
let c_checkpoints_bg = Obs.counter obs "checkpoints_bg"
let c_checkpoint_failures = Obs.counter obs "checkpoint_failures"
let h_checkpoint_ns = Obs.histogram obs "checkpoint_ns"
let h_install_ns = Obs.histogram obs "checkpoint_install_ns"

type config = { sync : Wal.sync; checkpoint_every : int; checkpoint_jobs : int }

let default_config = { sync = Wal.Always; checkpoint_every = 0; checkpoint_jobs = 0 }

(* Snapshots kept after a new one installs, and compacted WAL segments
   kept as archives so a lagging replica can still be shipped
   pre-checkpoint records. *)
let keep_snapshots = 2
let wal_archives = 4

type batch_result = Subject.batch_result = Br_inserted of int | Br_deleted of bool

(* One in-flight background checkpoint: the worker serializes the view
   into [p_tmp]; the writer buffers every mutation logged since the
   trigger so WAL compaction at install time can rewrite the tail
   without re-reading the file. *)
type pending = {
  p_handle : unit Exec.handle;
  p_tmp : string;
  p_serial : int;
  mutable p_tail : Trace.op list; (* newest first *)
}

type t = {
  dir : string;
  idx : Di.t;
  cfg : config;
  exec : Exec.t option;
  mutable wal : Wal.t;
  mutable pending : pending option;
  mutable updates_since_checkpoint : int;
  mutable closed : bool;
}

let dir t = t.dir
let index t = t.idx
let wal_serial t = Wal.next_serial t.wal
let durable_serial t = Wal.durable_serial t.wal
let wal_path t = Wal.path t.wal
let sync_wal t = if durable_serial t < wal_serial t then Wal.sync t.wal

let open_ ?(config = default_config) ?index ~dir () =
  (* a sharded root holds only its meta log and shard-i sub-stores; a
     plain store written next to them would make the directory
     unopenable either way *)
  if Sys.file_exists (Filename.concat dir "shard.meta") then
    invalid_arg (Printf.sprintf "Durable.open_: %s holds a sharded store" dir);
  let index =
    Dsdg_core.Index_config.validate_collection ~indexes:1 ~checkpoint_jobs:config.checkpoint_jobs
      ~recovery_jobs:0
      (Option.value index ~default:Dsdg_core.Index_config.default)
  in
  let idx, info = Recovery.open_or_recover ~index ~dir () in
  Snapshot.ensure_dir dir;
  let wal_file = Recovery.wal_path ~dir in
  let wal =
    if Sys.file_exists wal_file then
      Wal.open_append ~sync:config.sync wal_file ~next_serial:info.Recovery.ri_next_serial
    else Wal.create ~sync:config.sync wal_file ~serial0:info.Recovery.ri_next_serial
  in
  let exec =
    if config.checkpoint_jobs > 0 then
      Some (Exec.create ~obs:(Obs.private_scope "store/checkpoint") ~workers:config.checkpoint_jobs ())
    else None
  in
  ( {
      dir;
      idx;
      cfg = config;
      exec;
      wal;
      pending = None;
      updates_since_checkpoint = 0;
      closed = false;
    },
    info )

(* --- checkpointing --- *)

(* Install a finished snapshot: rename the worker's scratch file to its
   canonical name, prune old snapshots, compact the WAL down to the
   records logged since the trigger.  Runs on the writer, at an update
   boundary -- the paper's install-point pattern. *)
let install t ~tmp ~serial ~tail =
  let t0 = Obs.start () in
  Unix.rename tmp (Snapshot.path_for ~dir:t.dir ~wal_serial:serial);
  Snapshot.prune ~dir:t.dir ~keep:keep_snapshots;
  let old = t.wal in
  t.wal <-
    Wal.rewrite ~sync:t.cfg.sync ~archive:true (Wal.path t.wal)
      ~serial0:serial (List.rev tail);
  Wal.abandon old;
  Wal.prune_archives (Wal.path t.wal) ~keep:wal_archives;
  Obs.incr c_checkpoints;
  Obs.stop h_install_ns t0

let poll_pending t =
  match (t.pending, t.exec) with
  | Some p, Some ex -> (
    match Exec.poll ex p.p_handle with
    | `Pending -> ()
    | `Done () ->
      t.pending <- None;
      install t ~tmp:p.p_tmp ~serial:p.p_serial ~tail:p.p_tail
    | `Failed _ | `Cancelled ->
      t.pending <- None;
      Obs.incr c_checkpoint_failures;
      (try Sys.remove p.p_tmp with Sys_error _ -> ()))
  | _ -> ()

let await_pending t =
  match (t.pending, t.exec) with
  | Some p, Some ex -> (
    match Exec.await ex p.p_handle with
    | `Done () ->
      t.pending <- None;
      install t ~tmp:p.p_tmp ~serial:p.p_serial ~tail:p.p_tail
    | `Failed _ | `Cancelled ->
      t.pending <- None;
      Obs.incr c_checkpoint_failures;
      (try Sys.remove p.p_tmp with Sys_error _ -> ()))
  | _ -> ()

(* Synchronous checkpoint of the current published state. *)
let checkpoint_now t =
  let t0 = Obs.start () in
  let v = Di.view t.idx in
  let serial = Wal.next_serial t.wal in
  let dump = Di.checkpoint_body (Di.checkpoint_header t.idx v) v in
  ignore (Snapshot.save ~dir:t.dir ~wal_serial:serial dump);
  Snapshot.prune ~dir:t.dir ~keep:keep_snapshots;
  let old = t.wal in
  t.wal <-
    Wal.rewrite ~sync:t.cfg.sync ~archive:true (Wal.path t.wal)
      ~serial0:serial [];
  Wal.abandon old;
  Wal.prune_archives (Wal.path t.wal) ~keep:wal_archives;
  t.updates_since_checkpoint <- 0;
  Obs.incr c_checkpoints;
  Obs.stop h_checkpoint_ns t0

(* Trigger a background checkpoint: capture the O(1) header on the
   writer, hand the O(n) extraction + serialization of the immutable
   view to a worker domain.  The scratch file carries a non-snapshot
   suffix so a crash before install leaves debris recovery ignores. *)
let checkpoint_bg t ex =
  let v = Di.view t.idx in
  let serial = Wal.next_serial t.wal in
  let header = Di.checkpoint_header t.idx v in
  let tmp = Filename.concat t.dir (Printf.sprintf "snap-%d.dsdg.bg" serial) in
  let handle =
    Exec.submit ex ~name:"checkpoint" (fun _tick ->
        let t0 = Obs.start () in
        let dump = Di.checkpoint_body header v in
        Snapshot.write ~path:tmp ~wal_serial:serial dump;
        Obs.incr c_checkpoints_bg;
        Obs.stop h_checkpoint_ns t0)
  in
  t.pending <- Some { p_handle = handle; p_tmp = tmp; p_serial = serial; p_tail = [] }

let after_update t op =
  (match t.pending with Some p -> p.p_tail <- op :: p.p_tail | None -> ());
  t.updates_since_checkpoint <- t.updates_since_checkpoint + 1;
  poll_pending t;
  if
    t.cfg.checkpoint_every > 0
    && t.updates_since_checkpoint >= t.cfg.checkpoint_every
    && t.pending = None
  then begin
    t.updates_since_checkpoint <- 0;
    match t.exec with None -> checkpoint_now t | Some ex -> checkpoint_bg t ex
  end

let check_open t = if t.closed then invalid_arg "Durable: store is closed"

(* Group commit: the whole batch is logged (and fsynced once, per the
   policy) before any of it is applied, so a batch acknowledged to a
   client is durable as a unit -- a crash either replays all of it or
   none of the unacknowledged suffix. *)
let apply_batch t ops =
  check_open t;
  List.iter
    (function
      | Trace.Insert _ | Trace.Delete _ -> ()
      | op ->
        invalid_arg
          (Printf.sprintf "Durable.apply_batch: %S is not a mutation" (Trace.op_to_string op)))
    ops;
  ignore (Wal.append_batch t.wal ops);
  List.map
    (fun op ->
      let r =
        match op with
        | Trace.Insert text -> Br_inserted (Di.insert t.idx text)
        | Trace.Delete id -> Br_deleted (Di.delete t.idx id)
        | _ -> assert false
      in
      after_update t op;
      r)
    ops

let insert t text =
  match apply_batch t [ Trace.Insert text ] with [ Br_inserted id ] -> id | _ -> assert false

let delete t id =
  match apply_batch t [ Trace.Delete id ] with [ Br_deleted ok ] -> ok | _ -> assert false

let checkpoint t =
  check_open t;
  await_pending t;
  checkpoint_now t

(* --- pinned-view backups --- *)

(* A pin captures the whole epoch<->serial correspondence at one update
   boundary on the writer: the immutable view, the WAL serial it is
   aligned with, and the O(1) writer scalars ([checkpoint_header]) that
   a consistent dump of that view needs.  The writer can then proceed --
   the backup serializes the frozen state, not the live one. *)
type pin = { pv_pin : Di.pin; pv_serial : int; pv_header : Di.dump }

let pin t =
  check_open t;
  let p = Di.pin t.idx in
  let serial = Wal.next_serial t.wal in
  { pv_pin = p; pv_serial = serial; pv_header = Di.checkpoint_header t.idx (Di.pin_view p) }

let pin_epoch p = Di.pin_epoch p.pv_pin
let pin_serial p = p.pv_serial
let unpin t p = Di.unpin t.idx p.pv_pin

(* Write the pinned state as a fresh store directory: one snapshot at
   the pinned serial, no WAL (recovery of a WAL-less directory starts at
   the snapshot serial with zero replay).  Returns the snapshot path. *)
let backup t p ~dest =
  check_open t;
  let dump = Di.checkpoint_body p.pv_header (Di.pin_view p.pv_pin) in
  Snapshot.save ~dir:dest ~wal_serial:p.pv_serial dump

let close t =
  if not t.closed then begin
    t.closed <- true;
    await_pending t;
    Wal.close t.wal;
    (match t.exec with Some ex -> Exec.shutdown ex | None -> ());
    Di.close t.idx
  end

(* Crash simulation: abandon everything.  An in-flight checkpoint job
   is cancelled (its scratch file, if any, is crash debris recovery
   ignores); the WAL gets no final fsync and, with [torn], a half
   record.  Worker domains are joined only so the test process does not
   leak them. *)
let kill t ~torn =
  if not t.closed then begin
    t.closed <- true;
    (match (t.pending, t.exec) with
    | Some p, Some ex -> Exec.cancel ex p.p_handle
    | _ -> ());
    Wal.kill t.wal ~torn;
    (match t.exec with Some ex -> Exec.shutdown ex | None -> ());
    Di.close t.idx
  end

(* --- the store as a collection --- *)

(* Ship WAL records [from, durable_serial) by tailing the live log file.
   A fresh bounded cursor per poll keeps this robust against concurrent
   compaction (rotation detection is the cursor's job); the log is
   compacted at every checkpoint so the re-read stays proportional to
   the WAL tail, not history.  [Tail_gap] means [from] predates the
   log: first try the bounded {!Wal.archives} ring compaction left
   behind -- the segment covering [from] still holds the records, so a
   lagging follower catches up by ordinary record shipping -- and only
   when [from] predates the archives too fall back to the newest
   snapshot, whose serial the follower resumes from. *)
let ship t ~from =
  let bound = durable_serial t and epoch = Di.view_epoch (Di.view t.idx) in
  let read path =
    let c = Wal.tail ~from path in
    Fun.protect ~finally:(fun () -> Wal.tail_close c) (fun () -> Wal.tail_poll ~limit:bound c)
  in
  let recs rs =
    Subject.Rp_recs { recs = List.map (fun (s, op) -> (s, Trace.op_to_string op)) rs; bound; epoch }
  in
  if from >= bound then recs []
  else
    match read (wal_path t) with
    | rs -> recs rs
    | exception Wal.Tail_gap _ -> (
      (* an archive segment is an ordinary (immutable) log file, so the
         same cursor machinery reads it; one poll serves what the
         segment holds and the follower's next poll advances into the
         next segment or the live log *)
      let archived =
        match List.find_opt (fun (_, e) -> e > from) (Wal.archives (wal_path t)) with
        | None -> []
        | Some (path, _) -> ( try read path with Wal.Tail_gap _ -> [])
      in
      match archived with
      | _ :: _ -> recs archived
      | [] -> (
        match Snapshot.list ~dir:t.dir with
        | (path, serial) :: _ when serial > from ->
          Subject.Rp_snapshot { path; serial; bound; epoch }
        | _ ->
          Subject.Rp_error
            (Printf.sprintf "stream position %d was compacted away and no snapshot covers it"
               from)))

(* Replace the store in [dir] (not open) by one shipped snapshot:
   remove its snapshots, WAL and archives, then write [bytes] as the
   snapshot at [serial]; the next open recovers from it. *)
let install_snapshot ~dir ~serial bytes =
  let wal = Recovery.wal_path ~dir in
  List.iter
    (fun (p, _) -> try Sys.remove p with Sys_error _ -> ())
    (Snapshot.list ~dir @ Wal.archives wal @ [ (wal, 0) ]);
  Snapshot.ensure_dir dir;
  Out_channel.with_open_bin (Snapshot.path_for ~dir ~wal_serial:serial) (fun oc ->
      Out_channel.output_string oc bytes)
