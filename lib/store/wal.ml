(* Write-ahead log on the Trace line format; semantics documented in
   wal.mli and DESIGN.md section 10. *)

module Trace = Dsdg_check.Trace
open Dsdg_obs

let obs = Obs.scope "store"
let c_appends = Obs.counter obs "wal_appends"
let c_fsyncs = Obs.counter obs "wal_fsyncs"
let c_torn = Obs.counter obs "wal_torn_truncations"
let h_append_ns = Obs.histogram obs "wal_append_ns"
let g_serial = Obs.gauge obs "wal_serial"

type sync = Always | Every of int | Never

let sync_of_string = function
  | "always" -> Ok Always
  | "never" -> Ok Never
  | s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok (Every n)
    | _ -> Error (Printf.sprintf "bad sync policy %S (want always, never, or a record count)" s))

let sync_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Every n -> string_of_int n

type t = {
  path : string;
  oc : out_channel;
  sync_policy : sync;
  mutable next_serial : int;
  mutable unsynced : int;
  mutable synced_serial : int; (* serial covered by the last fsync *)
}

let header_of serial0 = Printf.sprintf "%% dsdg-wal 1 serial0=%d" serial0

let parse_header line =
  try Some (Scanf.sscanf line "%% dsdg-wal 1 serial0=%d%!" (fun s -> s))
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> None

let fsync_oc oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  Obs.incr c_fsyncs

let create ?(sync = Always) path ~serial0 =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
  output_string oc (header_of serial0 ^ "\n");
  fsync_oc oc;
  { path; oc; sync_policy = sync; next_serial = serial0; unsynced = 0; synced_serial = serial0 }

let next_serial t = t.next_serial
let path t = t.path

(* The highest serial known stable: everything below it survived an
   fsync (or, under [Never], at least reached the OS -- that policy has
   no durability to offer).  This is the bound the replication plane
   ships up to, so a follower can never observe a record the leader
   might lose. *)
let durable_serial t =
  match t.sync_policy with Never -> t.next_serial | Always | Every _ -> t.synced_serial

let sync t =
  fsync_oc t.oc;
  t.unsynced <- 0;
  t.synced_serial <- t.next_serial

(* One sync-policy application covering [n] freshly appended records:
   the group-commit primitive. Under [Every k] the pending-append
   counter advances by the whole batch, so the crash-loss window stays
   "fewer than k acknowledged appends" whether records arrive one at a
   time or in batches. *)
let apply_sync_policy t ~appended:n =
  match t.sync_policy with
  | Always ->
    fsync_oc t.oc;
    t.synced_serial <- t.next_serial
  | Every k ->
    t.unsynced <- t.unsynced + n;
    if t.unsynced >= k then begin
      fsync_oc t.oc;
      t.unsynced <- 0;
      t.synced_serial <- t.next_serial
    end
  | Never -> ()

let append t op =
  let t0 = Obs.start () in
  let serial = t.next_serial in
  output_string t.oc (Trace.op_to_string op ^ "\n");
  flush t.oc;
  t.next_serial <- serial + 1;
  apply_sync_policy t ~appended:1;
  Obs.incr c_appends;
  Obs.set_gauge g_serial t.next_serial;
  Obs.stop h_append_ns t0;
  serial

(* Group commit: every record of the batch reaches the OS, then the
   sync policy runs once for the whole batch -- under [Always] that is
   one fsync amortized over [length ops] acknowledged mutations. *)
let append_batch t ops =
  match ops with
  | [] -> t.next_serial
  | _ ->
    let t0 = Obs.start () in
    let serial = t.next_serial in
    let n =
      List.fold_left
        (fun n op ->
          output_string t.oc (Trace.op_to_string op ^ "\n");
          n + 1)
        0 ops
    in
    flush t.oc;
    t.next_serial <- serial + n;
    apply_sync_policy t ~appended:n;
    Obs.add c_appends n;
    Obs.set_gauge g_serial t.next_serial;
    Obs.stop h_append_ns t0;
    serial

let close t =
  sync t;
  close_out_noerr t.oc

(* Release a handle superseded by compaction: its file was already
   renamed over, so there is nothing to fsync -- just drop the fd.
   Without this every [rewrite] leaks the old descriptor. *)
let abandon t = close_out_noerr t.oc

let unsynced t = t.unsynced

(* Crash simulation: no final fsync; [torn] plants a half-written final
   record -- a newline-less prefix of a real Insert line, exactly what a
   power cut mid-[write] leaves behind. *)
let kill t ~torn =
  if torn then begin
    let line = Trace.op_to_string (Trace.Insert "lost to the torn final write") in
    output_string t.oc (String.sub line 0 (String.length line / 2))
  end;
  flush t.oc;
  close_out_noerr t.oc

(* --- reading: one line scanner for [read] and the cursor --- *)

let missing_header = "missing '% dsdg-wal 1 serial0=N' header"

(* The parse state of one pass over a log: its first line must be the
   header; after it, blank and ['%'] lines are inert and every other
   line is the next serial's record. *)
type scan = {
  mutable sc_header : bool;
  mutable sc_lineno : int;
  mutable sc_serial : int; (* serial of the next record line *)
}

let scan0 () = { sc_header = false; sc_lineno = 0; sc_serial = 0 }

(* Scan the complete lines of [b.[pos, stop)], calling [header s0] on
   the header and [record serial op] on each record; returns the offset
   just past the last newline, where an unterminated line (a torn
   record, or a write in flight) starts. *)
let scan_lines sc b ~pos ~stop ~header ~record =
  let line p nl =
    sc.sc_lineno <- sc.sc_lineno + 1;
    let line = String.trim (Bytes.sub_string b p (nl - p)) in
    let fail reason =
      raise (Trace.Parse_error { pe_line = sc.sc_lineno; pe_text = line; pe_reason = reason })
    in
    if not sc.sc_header then begin
      match parse_header line with
      | Some s0 ->
        sc.sc_header <- true;
        sc.sc_serial <- s0;
        header s0
      | None -> fail missing_header
    end
    else if line = "" || line.[0] = '%' then ()
    else
      match Trace.parse_op line with
      | Ok op ->
        let serial = sc.sc_serial in
        sc.sc_serial <- serial + 1;
        record serial op
      | Error reason -> fail reason
  in
  (* bytes past [stop] are stale: the search stays below it *)
  let rec newline i =
    if i >= stop then None else if Bytes.get b i = '\n' then Some i else newline (i + 1)
  in
  let rec go p =
    match newline p with
    | Some nl ->
      line p nl;
      go (nl + 1)
    | None -> p
  in
  go pos

type contents = {
  wc_serial0 : int;
  wc_ops : (int * Trace.op) list;
  wc_truncated : bool;
  wc_valid_bytes : int;
}

let read path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  let sc = scan0 () and serial0 = ref 0 and ops = ref [] in
  (* final bytes without a newline are a torn record, dropped -- even a
     parseable prefix must not replay (["- 12"] torn from ["- 123"]) *)
  let valid =
    scan_lines sc (Bytes.unsafe_of_string data) ~pos:0 ~stop:(String.length data)
      ~header:(fun s0 -> serial0 := s0)
      ~record:(fun serial op -> ops := (serial, op) :: !ops)
  in
  if not sc.sc_header then
    raise (Trace.Parse_error { pe_line = 1; pe_text = data; pe_reason = missing_header });
  {
    wc_serial0 = !serial0;
    wc_ops = List.rev !ops;
    wc_truncated = valid < String.length data;
    wc_valid_bytes = valid;
  }

let truncate_torn path c =
  if c.wc_truncated then begin
    Unix.truncate path c.wc_valid_bytes;
    Obs.incr c_torn
  end

(* --- tailing --- *)

exception Tail_gap of { wanted : int; serial0 : int }

let () =
  Printexc.register_printer (function
    | Tail_gap { wanted; serial0 } ->
      Some
        (Printf.sprintf
           "Wal.Tail_gap: cursor wants serial %d but the log now starts at serial %d -- the \
            records in between were compacted away"
           wanted serial0)
    | _ -> None)

(* A read-side streaming cursor over a live log.  The writer appends
   (and may compact: rename a fresh file over the path) concurrently;
   the cursor re-parses incrementally from its byte offset:

   - reads fill a [buf_size] buffer; a record straddling a chunk
     boundary stays at the front of the buffer (grown to hold a line
     longer than it) and the next read lands behind it;
   - a final line with no newline yet is indistinguishable from a torn
     record and from a write in flight -- either way it is held back
     until its newline arrives (the reader-side analogue of the
     torn-write rule);
   - on EOF the path is re-stat'ed: a changed inode or a shrunken file
     means compaction/truncation renamed or cut the log, so the cursor
     reopens from the top, parses the new header, and skips forward to
     the serial it wants -- raising {!Tail_gap} if the fresh log starts
     beyond it. *)
type cursor = {
  cur_path : string;
  mutable cur_buf : Bytes.t;
  mutable cur_held : int; (* bytes at the front of [cur_buf]: an unterminated line *)
  mutable cur_fd : Unix.file_descr option;
  mutable cur_ino : int;
  mutable cur_read : int; (* bytes consumed from the open fd *)
  mutable cur_scan : scan;
  mutable cur_wanted : int; (* next serial to deliver *)
  cur_pending : (int * Trace.op) Queue.t; (* parsed, not yet delivered *)
}

let tail ?(buf_size = 65536) ~from path =
  {
    cur_path = path;
    cur_buf = Bytes.create (max 1 buf_size);
    cur_held = 0;
    cur_fd = None;
    cur_ino = -1;
    cur_read = 0;
    cur_scan = scan0 ();
    cur_wanted = from;
    cur_pending = Queue.create ();
  }

let tail_next_serial c = c.cur_wanted
let tail_pending c = Queue.length c.cur_pending

let tail_close c =
  match c.cur_fd with
  | Some fd ->
    c.cur_fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

let tail_reset c =
  tail_close c;
  c.cur_ino <- -1;
  c.cur_read <- 0;
  c.cur_held <- 0;
  c.cur_scan <- scan0 ();
  (* parsed-but-undelivered records re-parse from the fresh file (which
     must still contain them, or Tail_gap fires on its header) *)
  Queue.clear c.cur_pending

(* Pull whatever the file has beyond our offset into the pending queue.
   Complete lines only; the trailing newline-less fragment stays held
   for the next poll. *)
let tail_fill c =
  (match c.cur_fd with
  | Some _ -> ()
  | None -> (
    match Unix.openfile c.cur_path [ Unix.O_RDONLY ] 0 with
    | fd ->
      c.cur_fd <- Some fd;
      c.cur_ino <- (Unix.fstat fd).Unix.st_ino
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()));
  match c.cur_fd with
  | None -> false
  | Some fd ->
    let header s0 =
      if s0 > c.cur_wanted then raise (Tail_gap { wanted = c.cur_wanted; serial0 = s0 })
    in
    let record serial op = if serial >= c.cur_wanted then Queue.add (serial, op) c.cur_pending in
    let reopened = ref false in
    let continue = ref true in
    while !continue do
      if c.cur_held = Bytes.length c.cur_buf then
        c.cur_buf <- Bytes.extend c.cur_buf 0 (Bytes.length c.cur_buf);
      let n = Unix.read fd c.cur_buf c.cur_held (Bytes.length c.cur_buf - c.cur_held) in
      if n = 0 then begin
        continue := false;
        (* EOF: detect compaction (inode changed) or truncation (file
           shrank below what we already consumed). *)
        match Unix.stat c.cur_path with
        | st ->
          if st.Unix.st_ino <> c.cur_ino || st.Unix.st_size < c.cur_read then begin
            tail_reset c;
            reopened := true
          end
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
      end
      else begin
        c.cur_read <- c.cur_read + n;
        let stop = c.cur_held + n in
        let rest = scan_lines c.cur_scan c.cur_buf ~pos:0 ~stop ~header ~record in
        Bytes.blit c.cur_buf rest c.cur_buf 0 (stop - rest);
        c.cur_held <- stop - rest
      end
    done;
    !reopened

let rec tail_poll ?limit c =
  if tail_fill c then tail_poll ?limit c
  else begin
    let out = ref [] in
    let stop = ref false in
    while (not !stop) && not (Queue.is_empty c.cur_pending) do
      let serial, _ = Queue.peek c.cur_pending in
      match limit with
      | Some l when serial >= l -> stop := true
      | _ ->
        let item = Queue.pop c.cur_pending in
        c.cur_wanted <- serial + 1;
        out := item :: !out
    done;
    List.rev !out
  end

let open_append ?(sync = Always) path ~next_serial =
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  { path; oc; sync_policy = sync; next_serial; unsynced = 0; synced_serial = next_serial }

(* --- archive segments --- *)

(* Compaction with [~archive:true] preserves the outgoing log as an
   immutable segment named by its exclusive end serial: [wal.arch.N]
   holds the records below [N] that the live log no longer starts at.
   This is the replication horizon -- a follower that lags past a
   checkpoint can still be shipped the compacted-away records from the
   archive instead of being forced into a snapshot re-seed. *)
let archive_path path ~serial_end = Printf.sprintf "%s.arch.%d" path serial_end

(* Archive segments next to [path], sorted by ascending end serial. *)
let archives path =
  let dir = Filename.dirname path in
  let prefix = Filename.basename path ^ ".arch." in
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun name ->
           if String.starts_with ~prefix name then
             Option.map
               (fun e -> (Filename.concat dir name, e))
               (int_of_string_opt
                  (String.sub name (String.length prefix)
                     (String.length name - String.length prefix)))
           else None)
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  | exception Sys_error _ -> []

let prune_archives path ~keep =
  let ar = archives path in
  let excess = List.length ar - max 0 keep in
  if excess > 0 then
    List.iteri
      (fun i (p, _) -> if i < excess then try Sys.remove p with Sys_error _ -> ())
      ar

(* Compaction: fresh log in a temporary file, fsynced, renamed over the
   old one.  The returned handle holds the (still valid) fd of the
   renamed file. *)
let rewrite ?(sync = Always) ?(archive = false) path ~serial0 ops =
  let tmp = path ^ ".tmp" in
  let t = create ~sync tmp ~serial0 in
  List.iter (fun op -> ignore (append t op)) ops;
  fsync_oc t.oc;
  t.unsynced <- 0;
  t.synced_serial <- t.next_serial;
  (* hard-link the outgoing log into the archive before the rename
     replaces it -- the old records stay reachable without any copy
     (EEXIST = a zero-update checkpoint reused the end serial: the
     existing segment already covers it) *)
  if archive then
    (try Unix.link path (archive_path path ~serial_end:serial0)
     with Unix.Unix_error _ -> ());
  Unix.rename tmp path;
  (try
     let dfd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
     Fun.protect ~finally:(fun () -> Unix.close dfd) (fun () -> Unix.fsync dfd)
   with Unix.Unix_error _ -> ());
  { t with path }
