(* Whole-index snapshots; layout documented in snapshot.mli. *)

module Di = Dsdg_core.Dynamic_index
open Dsdg_obs

let obs = Obs.scope "store"
let c_saves = Obs.counter obs "snapshot_saves"
let c_loads = Obs.counter obs "snapshot_loads"
let h_save_ns = Obs.histogram obs "snapshot_save_ns"
let h_load_ns = Obs.histogram obs "snapshot_load_ns"
let g_bytes = Obs.gauge obs "snapshot_bytes"

let path_for ~dir ~wal_serial = Filename.concat dir (Printf.sprintf "snap-%d.dsdg" wal_serial)

let serial_of_name name =
  try Scanf.sscanf name "snap-%d.dsdg%!" (fun s -> Some s)
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> None

(* The "store" section is the epoch<->serial correspondence made
   durable: [wal_serial] names the WAL prefix the snapshot covers,
   [epoch] the published read-plane epoch at capture time -- so an
   epoch names a durable prefix, not just an in-memory counter.  Old
   files carry only the serial; [epoch] then falls back to the dump's
   [dm_epoch] on full loads and [0] on header-only reads. *)
let store_section ~wal_serial ~epoch =
  let b = Codec.W.create () in
  Codec.W.int b wal_serial;
  Codec.W.int b epoch;
  ("store", Codec.W.contents b)

let read_store_section ~path payload =
  let r = Codec.R.of_string ~file:path ~section:"store" payload in
  let wal_serial = Codec.R.int r in
  let epoch = if Codec.R.at_end r then None else Some (Codec.R.int r) in
  (wal_serial, epoch)

let write ~path ~wal_serial dump =
  let t0 = Obs.start () in
  Codec.write_file ~path ~kind:"snapshot"
    (store_section ~wal_serial ~epoch:dump.Di.dm_epoch :: Codec.encode_dump dump);
  Obs.incr c_saves;
  (try Obs.set_gauge g_bytes (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> ());
  Obs.stop h_save_ns t0

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let save ~dir ~wal_serial dump =
  ensure_dir dir;
  let path = path_for ~dir ~wal_serial in
  write ~path ~wal_serial dump;
  path

let load path =
  let t0 = Obs.start () in
  let version, sections = Codec.read_file ~path ~kind:"snapshot" in
  let wal_serial =
    match List.assoc_opt "store" sections with
    | None -> raise (Codec.Corrupt { file = path; section = "store"; reason = "section missing" })
    | Some payload -> fst (read_store_section ~path payload)
  in
  let dump = Codec.decode_dump ~file:path ~version sections in
  Obs.incr c_loads;
  Obs.stop h_load_ns t0;
  (dump, wal_serial)

let info path =
  let _, sections = Codec.read_file ~path ~kind:"snapshot" in
  match List.assoc_opt "store" sections with
  | None -> raise (Codec.Corrupt { file = path; section = "store"; reason = "section missing" })
  | Some payload ->
    let wal_serial, epoch = read_store_section ~path payload in
    (wal_serial, Option.value epoch ~default:0)

let list ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun name ->
           match serial_of_name name with
           | Some s -> Some (Filename.concat dir name, s)
           | None -> None)
    |> List.sort (fun (_, a) (_, b) -> compare b a)

let prune ~dir ~keep =
  list ~dir
  |> List.iteri (fun i (path, _) ->
         if i >= keep then try Sys.remove path with Sys_error _ -> ())
