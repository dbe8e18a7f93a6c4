(* Crash recovery: newest valid snapshot + the WAL tail folded into it;
   state machine documented in recovery.mli and DESIGN.md section 10. *)

module Di = Dsdg_core.Dynamic_index
module Trace = Dsdg_check.Trace
open Dsdg_obs

let obs = Obs.scope "store"
let c_recoveries = Obs.counter obs "recoveries"
let c_recovered_ops = Obs.counter obs "recovered_ops"
let c_skipped = Obs.counter obs "snapshots_skipped"
let h_recovery_ns = Obs.histogram obs "recovery_ns"

exception Gap of { dir : string; snapshot_serial : int; wal_serial0 : int }

let () =
  Printexc.register_printer (function
    | Gap { dir; snapshot_serial; wal_serial0 } ->
      Some
        (Printf.sprintf
           "Recovery.Gap: %s: WAL starts at serial %d but the newest loadable snapshot covers \
            only serial %d -- records in between are lost"
           dir wal_serial0 snapshot_serial)
    | _ -> None)

type info = {
  ri_snapshot : string option;
  ri_snapshot_serial : int;
  ri_skipped : (string * string) list;
  ri_replayed : int;
  ri_truncated : bool;
  ri_next_serial : int;
}

let info_to_string i =
  Printf.sprintf "snapshot=%s serial=%d skipped=%d replayed=%d%s next_serial=%d"
    (match i.ri_snapshot with None -> "none" | Some p -> Filename.basename p)
    i.ri_snapshot_serial (List.length i.ri_skipped) i.ri_replayed
    (if i.ri_truncated then " torn-tail-truncated" else "")
    i.ri_next_serial

let wal_path ~dir = Filename.concat dir "wal.log"

(* Newest snapshot that passes every checksum; corrupt ones are skipped
   and reported, not fatal (the WAL may still cover their window). *)
let load_newest ~dir =
  let rec go skipped = function
    | [] -> (None, List.rev skipped)
    | (path, _serial) :: rest -> (
      match Snapshot.load path with
      | dump, wal_serial -> (Some (path, dump, wal_serial), List.rev skipped)
      | exception Codec.Corrupt { section; reason; _ } ->
        Obs.incr c_skipped;
        go ((path, Printf.sprintf "%s: %s" section reason) :: skipped) rest)
  in
  go [] (Snapshot.list ~dir)

(* Only mutations carry state: queries in a hand-edited log are legal
   trace lines, skipped here (but still counted as replayed records). *)
let mutation : Trace.op -> Di.mutation option = function
  | Trace.Insert text -> Some (Di.Insert text)
  | Trace.Delete id -> Some (Di.Delete id)
  | Trace.Search _ | Trace.Count _ | Trace.Extract _ | Trace.Mem _ | Trace.Drain -> None

(* The records of serials [from, upto) of the log at [wal], read with
   the replication cursor: safe while a writer appends past [upto]. *)
let records ~wal ~from ~upto =
  let c = Wal.tail ~from wal in
  Fun.protect
    ~finally:(fun () -> Wal.tail_close c)
    (fun () ->
      let rec go acc =
        if Wal.tail_next_serial c >= upto then List.concat (List.rev acc)
        else
          match Wal.tail_poll ~limit:upto c with
          | [] ->
            failwith
              (Printf.sprintf "Recovery.fold: %s ends at serial %d, before %d" wal
                 (Wal.tail_next_serial c) upto)
          | rs -> go (rs :: acc)
      in
      go [])

let fold ~index ~base ~upto ~wal =
  let dump, from =
    match base with Some path -> Snapshot.load path | None -> (Di.empty_dump index, 0)
  in
  Di.fold_tail dump (List.filter_map (fun (_, op) -> mutation op) (records ~wal ~from ~upto))

let open_or_recover ?(index = Dsdg_core.Index_config.default) ?(read_only = false) ~dir () =
  let index = Dsdg_core.Index_config.validate index in
  let t0 = Obs.start () in
  let loaded, skipped = load_newest ~dir in
  let dump, snap_path, snap_serial =
    match loaded with
    | Some (path, dump, wal_serial) -> (dump, Some path, wal_serial)
    | None -> (Di.empty_dump index, None, 0)
  in
  let wal = wal_path ~dir in
  let tail, truncated, next_serial =
    if Sys.file_exists wal then begin
      let c = Wal.read wal in
      if c.Wal.wc_serial0 > snap_serial then
        raise (Gap { dir; snapshot_serial = snap_serial; wal_serial0 = c.Wal.wc_serial0 });
      if not read_only then Wal.truncate_torn wal c;
      ( List.filter (fun (serial, _) -> serial >= snap_serial) c.Wal.wc_ops,
        c.Wal.wc_truncated,
        c.Wal.wc_serial0 + List.length c.Wal.wc_ops )
    end
    else ([], false, snap_serial)
  in
  let replayed = List.length tail in
  Obs.add c_recovered_ops replayed;
  let idx = Di.restore ~index ~tail:(List.filter_map (fun (_, op) -> mutation op) tail) dump in
  Obs.incr c_recoveries;
  Obs.stop h_recovery_ns t0;
  ( idx,
    {
      ri_snapshot = snap_path;
      ri_snapshot_serial = snap_serial;
      ri_skipped = skipped;
      ri_replayed = replayed;
      ri_truncated = truncated;
      ri_next_serial = next_serial;
    } )
