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
let c_checkpoint_fallbacks = Obs.counter obs "checkpoint_fallbacks"
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

exception Checkpoint_mismatch of string

let () =
  Printexc.register_printer (function
    | Checkpoint_mismatch msg -> Some ("Durable.Checkpoint_mismatch: " ^ msg)
    | _ -> None)

(* The index's O(1) values at a checkpoint's trigger, which the fold
   must reproduce: [epoch] is the published one, [drains] the index's
   {!Di.drain_epochs} then, so [drains - base_drains] of [epoch]'s
   advances since the base are not in the log. *)
type expect = { docs : int; symbols : int; next_id : int; epoch : int; drains : int }

(* One in-flight background checkpoint: the worker folds into [p_tmp];
   the writer buffers every mutation logged since the trigger so WAL
   compaction at install time can rewrite the tail without re-reading
   the file. *)
type pending = {
  p_handle : unit Exec.handle;
  p_tmp : string;
  p_serial : int;
  p_drains : int;
  mutable p_tail : Trace.op list; (* newest first *)
}

type t = {
  dir : string;
  idx : Di.t;
  cfg : config;
  shape : Dsdg_core.Index_config.t; (* the empty dump's, when there is no base *)
  exec : Exec.t option;
  mutable wal : Wal.t;
  (* the newest snapshot (None: the empty store at serial 0), which the
     next checkpoint folds the log into, and the index's drain epochs
     when it was taken *)
  mutable base : string option;
  mutable base_drains : int;
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
      shape = index;
      exec;
      wal;
      base = info.Recovery.ri_snapshot;
      base_drains = 0;
      pending = None;
      updates_since_checkpoint = 0;
      closed = false;
    },
    info )

(* --- checkpointing --- *)

let expect t =
  {
    docs = Di.doc_count t.idx;
    symbols = Di.total_symbols t.idx;
    next_id = Di.next_id t.idx;
    epoch = Di.view_epoch (Di.view t.idx);
    drains = Di.drain_epochs t.idx;
  }

(* The checkpoint proper: fold the log into the base snapshot, without
   reading the index, and refuse to return a dump that disagrees with
   the index's values at the trigger.  The dump records the published
   epoch. *)
let fold_checked ~shape ~base ~base_drains ~upto ~wal e =
  let d = Recovery.fold ~index:shape ~base ~upto ~wal in
  let symbols = Array.fold_left (fun a (_, text) -> a + String.length text + 1) 0 d.Di.dm_docs in
  let got = (Array.length d.Di.dm_docs, symbols, d.Di.dm_next_id, d.Di.dm_epoch) in
  let updates = e.epoch - (e.drains - base_drains) in
  if got <> (e.docs, e.symbols, e.next_id, updates) then begin
    Obs.incr c_checkpoint_failures;
    let docs, symbols, next_id, epoch = got in
    raise
      (Checkpoint_mismatch
         (Printf.sprintf
            "fold to serial %d gives docs=%d symbols=%d next_id=%d epoch=%d; the index has \
             docs=%d symbols=%d next_id=%d epoch=%d"
            upto docs symbols next_id epoch e.docs e.symbols e.next_id updates))
  end;
  { d with Di.dm_epoch = e.epoch }

(* Make the snapshot at [serial] the base: prune old snapshots, compact
   the WAL down to the records logged since ([tail]).  Runs on the
   writer, at an update boundary -- the paper's install-point pattern. *)
let install t ~path ~serial ~drains ~tail =
  Snapshot.prune ~dir:t.dir ~keep:keep_snapshots;
  let old = t.wal in
  t.wal <-
    Wal.rewrite ~sync:t.cfg.sync ~archive:true (Wal.path t.wal) ~serial0:serial (List.rev tail);
  Wal.abandon old;
  Wal.prune_archives (Wal.path t.wal) ~keep:wal_archives;
  t.base <- Some path;
  t.base_drains <- drains;
  Obs.incr c_checkpoints

(* A base snapshot that fails validation (or is gone) cannot be
   folded into. *)
let unreadable_base = function Codec.Corrupt _ | Sys_error _ -> true | _ -> false

(* Synchronous checkpoint of the current state.  Without a readable
   base the dump comes from the published view, by inversion. *)
let checkpoint_now t =
  let t0 = Obs.start () in
  let serial = Wal.next_serial t.wal in
  let e = expect t in
  let dump =
    match
      fold_checked ~shape:t.shape ~base:t.base ~base_drains:t.base_drains ~upto:serial
        ~wal:(wal_path t) e
    with
    | d -> d
    | exception exn when unreadable_base exn ->
      Obs.incr c_checkpoint_fallbacks;
      Di.dump t.idx
  in
  let path = Snapshot.save ~dir:t.dir ~wal_serial:serial dump in
  install t ~path ~serial ~drains:e.drains ~tail:[];
  t.updates_since_checkpoint <- 0;
  Obs.stop h_checkpoint_ns t0

(* A finished background job: install it, or after a failure drop its
   scratch file.  An unreadable base falls back to a synchronous
   checkpoint; a fold that disagreed with the index raises here, on the
   writer. *)
let finish t p = function
  | `Done () ->
    let t0 = Obs.start () in
    let path = Snapshot.path_for ~dir:t.dir ~wal_serial:p.p_serial in
    Unix.rename p.p_tmp path;
    install t ~path ~serial:p.p_serial ~drains:p.p_drains ~tail:p.p_tail;
    Obs.stop h_install_ns t0
  | (`Failed _ | `Cancelled) as r -> (
    (try Sys.remove p.p_tmp with Sys_error _ -> ());
    match r with
    | `Failed exn when unreadable_base exn -> checkpoint_now t
    | `Failed (Checkpoint_mismatch _ as exn) -> raise exn
    | _ -> Obs.incr c_checkpoint_failures)

let poll_pending t =
  match (t.pending, t.exec) with
  | Some p, Some ex -> (
    match Exec.poll ex p.p_handle with
    | `Pending -> ()
    | (`Done _ | `Failed _ | `Cancelled) as r ->
      t.pending <- None;
      finish t p r)
  | _ -> ()

let await_pending t =
  match (t.pending, t.exec) with
  | Some p, Some ex ->
    let r = Exec.await ex p.p_handle in
    t.pending <- None;
    finish t p r
  | _ -> ()

(* Trigger a background checkpoint: capture the index's O(1) values on
   the writer and hand the fold -- from the base file and the log up to
   the trigger serial -- to a worker domain.  The scratch file carries
   a non-snapshot suffix so a crash before install leaves debris
   recovery ignores. *)
let checkpoint_bg t ex =
  let serial = Wal.next_serial t.wal in
  let e = expect t in
  let shape = t.shape and base = t.base and base_drains = t.base_drains and wal = wal_path t in
  let tmp = Filename.concat t.dir (Printf.sprintf "snap-%d.dsdg.bg" serial) in
  let handle =
    Exec.submit ex ~name:"checkpoint" (fun _tick ->
        let t0 = Obs.start () in
        Snapshot.write ~path:tmp ~wal_serial:serial
          (fold_checked ~shape ~base ~base_drains ~upto:serial ~wal e);
        Obs.incr c_checkpoints_bg;
        Obs.stop h_checkpoint_ns t0)
  in
  t.pending <-
    Some { p_handle = handle; p_tmp = tmp; p_serial = serial; p_drains = e.drains; p_tail = [] }

(* Checkpoints trigger and install between batches only: there the
   index has applied every record the WAL holds, so the trigger serial
   is the log's next serial and the compacted log keeps every record
   past it. *)
let after_batch t ops =
  (match t.pending with Some p -> p.p_tail <- List.rev_append ops p.p_tail | None -> ());
  t.updates_since_checkpoint <- t.updates_since_checkpoint + List.length ops;
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
  let results =
    List.map
      (function
        | Trace.Insert text -> Br_inserted (Di.insert t.idx text)
        | Trace.Delete id -> Br_deleted (Di.delete t.idx id)
        | _ -> assert false)
      ops
  in
  after_batch t ops;
  results

let insert t text =
  match apply_batch t [ Trace.Insert text ] with [ Br_inserted id ] -> id | _ -> assert false

let delete t id =
  match apply_batch t [ Trace.Delete id ] with [ Br_deleted ok ] -> ok | _ -> assert false

let checkpoint t =
  check_open t;
  await_pending t;
  checkpoint_now t

(* --- pinned-view backups --- *)

(* A pin captures the epoch<->serial correspondence at one update
   boundary on the writer: the immutable view and the WAL serial it is
   aligned with.  The writer can then proceed -- the backup inverts the
   frozen view, not the live index. *)
type pin = { pv_pin : Di.pin; pv_serial : int }

let pin t =
  check_open t;
  { pv_pin = Di.pin t.idx; pv_serial = Wal.next_serial t.wal }

let pin_epoch p = Di.pin_epoch p.pv_pin
let pin_serial p = p.pv_serial
let unpin t p = Di.unpin t.idx p.pv_pin

(* Write the pinned state as a fresh store directory: one snapshot at
   the pinned serial, no WAL (recovery of a WAL-less directory starts at
   the snapshot serial with zero replay).  Returns the snapshot path. *)
let backup t p ~dest =
  check_open t;
  Snapshot.save ~dir:dest ~wal_serial:p.pv_serial (Di.view_dump t.idx (Di.pin_view p.pv_pin))

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
