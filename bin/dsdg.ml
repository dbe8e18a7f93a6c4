(* dsdg: command-line front end for the dynamic compressed document index.

     dsdg index FILE...           index files (one document per line of each
                                  file, or whole files with --whole), then
                                  answer queries from stdin; with --store DIR
                                  every mutation is write-ahead-logged and the
                                  session survives a crash
     dsdg save DIR FILE...        index files into a durable store directory
                                  and checkpoint (snapshot + empty WAL)
     dsdg open DIR                recover an index from a store directory
                                  (newest valid snapshot + WAL tail replay),
                                  then answer queries from stdin
     dsdg serve DIR               recover a store and serve it over a Unix or
                                  TCP socket: queries on the read plane,
                                  mutations group-committed to the WAL
                                  (one fsync per batch); SIGTERM/SIGINT
                                  drain, checkpoint and exit 0
     dsdg follow                  WAL-shipped read replica of a running
                                  server: bootstrap --store DIR from the
                                  leader, tail its replication streams,
                                  optionally serve read-only queries
                                  locally (writes redirect to the leader)
     dsdg load                    load generator against a running server:
                                  N client sessions, Zipf document
                                  popularity, exact p50/p90/p99/p999
     dsdg demo                    run a synthetic churn demo with stats
     dsdg stats                   run a scripted churn workload and dump the
                                  observability layer (counters, latency
                                  histograms, structural events, space vs
                                  the entropy budget)
     dsdg fuzz                    differential checking: drive random op
                                  streams through variant x backend pairs
                                  against a naive model with paper-invariant
                                  oracles; failures shrink to a minimal
                                  trace replayable with --replay; with
                                  --store DIR it instead runs the
                                  kill-and-recover sweep (crash at every
                                  k-th op, recover, diff against the model)

   Query language on stdin (after `dsdg index` / `dsdg load`):
     ?PATTERN      report occurrences
     #PATTERN      count occurrences
     +TEXT         insert TEXT as a new document
     -ID           delete document ID
     =ID OFF LEN   extract a substring
     .             print stats and exit

   Exit codes (see the EXIT STATUS section of the man page):
     0    success
     1    a checker found a real divergence (fuzz, kill-and-recover),
          or a load run finished with errors / zero completed ops
     2    data error: corrupt store files or an unparseable trace
     124  command-line usage error (Cmdliner's cli_error)
     125  unexpected internal error *)

open Dsdg_core
open Cmdliner
module Store = Dsdg_store
module Serve = Dsdg_serve
module Shard = Dsdg_shard
module Sh = Dsdg_shard.Sharded_index
module Subject = Dsdg_check.Subject
module Binrel = Dsdg_binrel

(* Usage errors that only surface once the command runs (a bad enum
   value, an impossible flag combination) exit like Cmdliner's own
   parse errors do, not as internal crashes. *)
let die_usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("dsdg: " ^ msg);
      exit Cmd.Exit.cli_error)
    fmt

let profile_of_string = function
  | "default" -> Dsdg_check.Opgen.default
  | "churny" -> Dsdg_check.Opgen.churny
  | s -> die_usage "unknown profile: %s" s

(* Store-mode error envelope: a corrupt snapshot, an interior-corrupt
   WAL or a snapshot/WAL serial gap is a problem with the files on
   disk, not a crash -- report where, and exit 2 like a parse error. *)
let with_store_errors ~dir f =
  try f () with
  | Dsdg_check.Trace.Parse_error e ->
    prerr_endline
      (Dsdg_check.Trace.parse_error_message ~file:(Store.Recovery.wal_path ~dir) e);
    exit 2
  | Store.Codec.Corrupt { file; section; reason } ->
    Printf.eprintf "%s: corrupt %S section: %s\n" file section reason;
    exit 2
  | Store.Recovery.Gap { dir; snapshot_serial; wal_serial0 } ->
    Printf.eprintf
      "%s: WAL starts at serial %d but the newest loadable snapshot covers only serials < %d; \
       the records in between are unrecoverable, refusing to open with silent data loss\n"
      dir wal_serial0 snapshot_serial;
    exit 2
  | Sh.Old_layout { dir; version } ->
    Printf.eprintf
      "%s: a version-%d sharded store (hash placement with a placement log); this build opens \
       only version 2 (global id g on shard g mod K) and has left it untouched\n"
      dir version;
    exit 2

let addr_name = function `Unix path -> path | `Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let store_config ~sync ~checkpoint_every ~jobs =
  match Store.Wal.sync_of_string sync with
  | Error msg -> die_usage "--sync: %s" msg
  | Ok s ->
    { Store.Durable.sync = s; checkpoint_every; checkpoint_jobs = (if jobs > 0 then 1 else 0) }

(* --- the one place a collection is opened --- *)

(* Every domain a collection would start, checked before any starts: an
   over-budget setting is a usage error, not a failure half way through
   spawning a pool. *)
let domain_budget ~indexes ~checkpoint_jobs ~recovery_jobs index =
  match Index_config.validate_collection ~indexes ~checkpoint_jobs ~recovery_jobs index with
  | _ -> ()
  | exception Invalid_argument msg -> die_usage "%s" msg

(* An opened collection: K in-memory shards or the store in a
   directory, and the subject every command drives. *)
type opened = { sh : Sh.t; coll : Subject.t; store : string option }

(* The one function that opens a collection. K is the --shards flag's
   ([`Flag k]) or, for a store, read from the directory ([`Read]; 1
   when it is fresh); a flag that disagrees with the directory is a
   usage error (124) raised before anything in it is touched. *)
let open_collection ~(index : Index_config.t) ~config ~layout store =
  let on_disk = Option.bind store (fun dir -> Sh.store_shards ~dir) in
  let k =
    match (layout, on_disk) with
    | `Flag k, Some d when d <> k ->
      die_usage "store at %s holds K=%d; pass --shards %d" (Option.get store) d d
    | `Flag k, _ -> k
    | `Read, d -> Option.value d ~default:1
  in
  let recovery_jobs = if store <> None && k > 1 then min k 4 else 0 in
  domain_budget ~indexes:k ~recovery_jobs
    ~checkpoint_jobs:(if store = None then 0 else config.Store.Durable.checkpoint_jobs)
    index;
  match store with
  | None ->
    let sh = Sh.create ~index ~shards:k () in
    let name = if k = 1 then "an in-memory index" else Printf.sprintf "%d in-memory shards" k in
    { sh; coll = Sh.subject ~name sh; store }
  | Some dir ->
    (* K > 1 recovers the shard stores in parallel on a small executor pool *)
    let sh, infos = Sh.open_store ~config ~index ~recovery_jobs ~shards:k ~dir () in
    let name =
      if k = 1 then begin
        print_endline (Store.Recovery.info_to_string infos.(0));
        dir
      end
      else begin
        Array.iteri
          (fun s info -> Printf.printf "shard %d: %s\n" s (Store.Recovery.info_to_string info))
          infos;
        Printf.printf "sharded: %d shard stores under %s, scatter-gather queries\n%!" k dir;
        Printf.sprintf "%d shard stores under %s" k dir
      end
    in
    { sh; coll = Sh.subject ~name sh; store }

(* Open, run [f], close -- store errors reported as data errors (2). *)
let with_collection ~index ~config ~layout store f =
  let run () =
    let o = open_collection ~index ~config ~layout store in
    Fun.protect ~finally:o.coll.close (fun () -> f o)
  in
  match store with Some dir -> with_store_errors ~dir run | None -> run ()

let vector a = String.concat "," (Array.to_list (Array.map string_of_int a))

(* The census, then space and engine, the composite epoch an as-of
   query names, and with a store its replication coordinates. *)
let print_stats o =
  let syms = o.coll.total_symbols () in
  let bits = Array.fold_left (fun b i -> b + Dynamic_index.space_bits i) 0 (Sh.indexes o.sh) in
  Printf.printf "documents : %d\n" (o.coll.doc_count ());
  Printf.printf "symbols   : %d\n" syms;
  Printf.printf "space     : %d bits (%.2f bits/symbol)\n" bits
    (if syms = 0 then 0. else float_of_int bits /. float_of_int syms);
  Printf.printf "engine    : %s\n" (Sh.describe o.sh);
  Printf.printf "epochs    : %s (one per shard view)\n" (vector (Sh.epoch_vector o.sh));
  Option.iter
    (fun dir ->
      Printf.printf "store     : %s (next WAL serial %s)\n" dir (vector (Sh.wal_serials o.sh)))
    o.store

(* ~E0,...,E(K-1) ?PAT / #PAT: answer as of a composite epoch. *)
let asof o ~epoch_vector query =
  let arg = String.sub query 1 (String.length query - 1) in
  match query.[0] with
  | ('?' | '#') when arg = "" ->
    Printf.printf "empty pattern (matches everywhere); give at least one symbol\n%!"
  | '?' ->
    let hits = Sh.search ~epoch_vector o.sh arg in
    List.iter (fun (d, o) -> Printf.printf "doc %d off %d\n" d o) hits;
    Printf.printf "%d occurrence(s) as of %s\n%!" (List.length hits) (vector epoch_vector)
  | '#' -> Printf.printf "%d\n%!" (Sh.count ~epoch_vector o.sh arg)
  | _ -> Printf.printf "usage: ~E0,...,E(K-1) ?PAT or ~E0,...,E(K-1) #PAT\n%!"

(* The interactive loop over any collection. *)
let repl o =
  let c = o.coll in
  let usage u = Printf.printf "usage: %s\n%!" u in
  (try
     while true do
       let line = input_line stdin in
       if String.length line > 0 then begin
         let arg = String.sub line 1 (String.length line - 1) in
         match line.[0] with
         | ('?' | '#') when arg = "" ->
           (* the index uniformly rejects the empty pattern; say so
              instead of dying on Invalid_argument *)
           Printf.printf "empty pattern (matches everywhere); give at least one symbol\n%!"
         | '?' ->
           let hits = c.search arg in
           List.iter (fun (d, o) -> Printf.printf "doc %d off %d\n" d o) hits;
           Printf.printf "%d occurrence(s)\n%!" (List.length hits)
         | '#' -> Printf.printf "%d\n%!" (c.count arg)
         | '+' -> Printf.printf "doc %d\n%!" (Subject.insert c arg)
         | '-' -> (
           match int_of_string_opt (String.trim arg) with
           | Some id ->
             Printf.printf "%s\n%!" (if Subject.delete c id then "deleted" else "no such document")
           | None -> usage "-ID")
         | '=' -> (
           match List.map int_of_string_opt (String.split_on_char ' ' (String.trim arg)) with
           | [ Some doc; Some off; Some len ] -> (
             match c.extract ~doc ~off ~len with
             | Some s -> Printf.printf "%S\n%!" s
             | None -> Printf.printf "out of range or deleted\n%!")
           | _ -> usage "=ID OFF LEN")
         | '~' -> (
           let arg = String.trim arg in
           let usage () = usage "~E0,...,E(K-1) ?PAT or ~E0,...,E(K-1) #PAT" in
           match String.index_opt arg ' ' with
           | None -> usage ()
           | Some i -> (
             let q = String.trim (String.sub arg (i + 1) (String.length arg - i - 1)) in
             match
               List.map int_of_string_opt (String.split_on_char ',' (String.sub arg 0 i))
             with
             | ev when q <> "" && not (List.mem None ev) -> (
               let epoch_vector = Array.of_list (List.filter_map Fun.id ev) in
               (* a vector of the wrong length, or no longer retained *)
               try asof o ~epoch_vector q with Invalid_argument msg -> Printf.printf "%s\n%!" msg)
             | _ -> usage ()))
         | '.' -> raise Exit
         | _ -> Printf.printf "commands: ?PAT #PAT +TEXT -ID =ID OFF LEN ~E0,...,E(K-1) ?PAT .\n%!"
       end
     done
   with End_of_file | Exit -> ());
  print_stats o

let index_files ~insert ~whole files =
  List.iter
    (fun file ->
      let ic = open_in file in
      if whole then begin
        let n = in_channel_length ic in
        ignore (insert (really_input_string ic n))
      end
      else begin
        try
          while true do
            let line = input_line ic in
            if String.length line > 0 then ignore (insert line)
          done
        with End_of_file -> ()
      end;
      close_in ic)
    files

let index_cmd files whole (index : Index_config.t) shards store sync checkpoint_every =
  let config = store_config ~sync ~checkpoint_every ~jobs:index.jobs in
  with_collection ~index ~config ~layout:(`Flag shards) store (fun o ->
      index_files ~insert:(Subject.insert o.coll) ~whole files;
      Printf.printf "indexed %d document(s) from %d file(s) into %s\n%!" (o.coll.doc_count ())
        (List.length files) o.coll.name;
      repl o)

(* dsdg save: index files into a store directory (K read from it; 1
   when fresh), then checkpoint, so the next open starts from the
   snapshots with zero WAL replay. Reuses prior state in the directory
   if there is any -- `save` onto an existing store appends. *)
let save_cmd dir files whole (index : Index_config.t) sync pinned =
  let config = store_config ~sync ~checkpoint_every:0 ~jobs:index.jobs in
  with_collection ~index ~config ~layout:`Read (Some dir) (fun o ->
      (* --pinned: freeze the pre-index state NOW; the pin keeps that
         composite epoch (and its WAL-serial correspondence) alive
         across the inserts and the checkpoint below, then backs it up
         -- a consistent backup of "the store as it was before this
         save" *)
      let pin = Option.map (fun dest -> (dest, Sh.pin o.sh)) pinned in
      index_files ~insert:(Subject.insert o.coll) ~whole files;
      o.coll.checkpoint ();
      Option.iter
        (fun (dest, p) ->
          let path = Sh.backup o.sh p ~dest in
          Sh.unpin o.sh p;
          Printf.printf "pinned backup: pre-save state (epochs %s -> %s)\n"
            (vector (Sh.pin_epoch_vector p)) path)
        pin;
      let docs = o.coll.doc_count () in
      match Store.Snapshot.list ~dir with
      | (path, serial) :: _ ->
        Printf.printf "saved %d document(s): %s (%d bytes, WAL serial %d)\n" docs path
          (Unix.stat path).Unix.st_size serial
      | [] -> Printf.printf "saved %d document(s) into %s\n" docs dir)

(* dsdg open: crash recovery (newest valid snapshot + WAL tail fold;
   K shard stores when the directory is sharded) followed by the
   interactive query loop; mutations made in the loop keep flowing
   through the WAL. *)
let open_cmd dir (index : Index_config.t) sync checkpoint_every =
  let config = store_config ~sync ~checkpoint_every ~jobs:index.jobs in
  with_collection ~index ~config ~layout:`Read (Some dir) repl

(* dsdg serve: the service plane. Recover the store, bind the socket,
   then park the main thread until SIGTERM/SIGINT (or a quit of the
   process): the graceful drain finishes in-flight requests, flushes
   the write queue through a final group commit, checkpoints and exits
   0 -- the next open replays nothing. *)
let serve_cmd dir socket host port (index : Index_config.t) shards sync checkpoint_every max_batch
    max_frame max_conns timeout =
  if max_batch < 1 then die_usage "--max-batch must be >= 1 (got %d)" max_batch;
  if max_frame < 16 then die_usage "--max-frame must be >= 16 bytes (got %d)" max_frame;
  if max_conns < 1 then die_usage "--max-conns must be >= 1 (got %d)" max_conns;
  if timeout < 0. then die_usage "--timeout must be >= 0 seconds";
  let listen =
    match socket with Some path -> `Unix path | None -> `Tcp (host, port)
  in
  let config = store_config ~sync ~checkpoint_every ~jobs:index.jobs in
  with_store_errors ~dir (fun () ->
      (* the server owns the collection from here on: K shard stores
         behind one scatter-gather collection (the writer thread fans
         each batch across the shard WALs, one group commit each) *)
      let o = open_collection ~index ~config ~layout:(`Flag shards) (Some dir) in
      let srv =
        try Serve.Server.start ~config:{ max_frame; max_batch; max_conns; timeout } o.coll listen
        with Unix.Unix_error (e, _, _) ->
          o.coll.close ();
          Printf.eprintf "dsdg: cannot bind %s: %s\n" (addr_name listen) (Unix.error_message e);
          exit 1
      in
      (match (listen, Serve.Server.port srv) with
      | `Unix path, _ -> Printf.printf "listening on unix socket %s\n%!" path
      | `Tcp (h, _), Some p -> Printf.printf "listening on %s:%d\n%!" h p
      | `Tcp (h, p), None -> Printf.printf "listening on %s:%d\n%!" h p);
      Printf.printf "group commit: up to %d writes per fsync (--sync %s)\n%!" max_batch sync;
      List.iter
        (fun s ->
          Sys.set_signal s (Sys.Signal_handle (fun _ -> Serve.Server.request_stop srv)))
        [ Sys.sigterm; Sys.sigint ];
      Serve.Server.wait srv;
      Printf.printf "draining: finishing in-flight requests, checkpointing %s\n%!" dir;
      Serve.Server.stop srv;
      Printf.printf "served %d op(s); store checkpointed cleanly\n%!" (Serve.Server.ops_served srv))

(* dsdg load: closed-loop load generator against a running server.
   Human summary on stdout plus one BENCH JSON row appended to
   $DSDG_BENCH_JSON (default BENCH_RESULTS.json), same convention as
   bench/main.exe, so sweeps over --clients land in one results file. *)
let bench_json_row ~bench fields =
  let path =
    match Sys.getenv_opt "DSDG_BENCH_JSON" with Some p -> p | None -> "BENCH_RESULTS.json"
  in
  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "{\"bench\":\"%s\"" (escape bench));
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (Printf.sprintf ",\"%s\":" (escape k));
      Buffer.add_string buf
        (match v with
        | `S s -> Printf.sprintf "\"%s\"" (escape s)
        | `I i -> string_of_int i
        | `F f -> if Float.is_nan f then "null" else Printf.sprintf "%.3f" f))
    fields;
  Buffer.add_string buf "}\n";
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (Buffer.contents buf);
  close_out oc

let loadgen_cmd socket host port clients ops seed timeout shards w_insert w_delete w_search
    w_count w_extract =
  if clients < 1 then die_usage "--clients must be >= 1 (got %d)" clients;
  if ops < 1 then die_usage "--ops must be >= 1 (got %d)" ops;
  if timeout < 0. then die_usage "--timeout must be >= 0 seconds";
  if w_insert < 0 || w_delete < 0 || w_search < 0 || w_count < 0 || w_extract < 0 then
    die_usage "operation-mix weights must be >= 0";
  if w_insert + w_delete + w_search + w_count + w_extract <= 0 then
    die_usage "operation mix is empty: give at least one positive weight";
  let addr = match socket with Some path -> `Unix path | None -> `Tcp (host, port) in
  let mix =
    {
      Serve.Load_gen.insert = w_insert;
      delete = w_delete;
      search = w_search;
      count = w_count;
      extract = w_extract;
    }
  in
  let r =
    try Serve.Load_gen.run ~mix ~timeout addr ~clients ~ops ~seed
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "dsdg: cannot reach %s: %s\n"
        (addr_name addr)
        (Unix.error_message e);
      exit 1
  in
  print_endline (Serve.Load_gen.report_to_string r);
  bench_json_row ~bench:"serve/load"
    [
      (* what the dialed server is sharded as, for sweep annotation --
         the generator itself is shard-agnostic *)
      ("shards", `I shards);
      ("clients", `I r.Serve.Load_gen.clients);
      ("ops", `I r.Serve.Load_gen.ops);
      ("errors", `I r.Serve.Load_gen.errors);
      ("writes", `I r.Serve.Load_gen.writes);
      ("queries", `I r.Serve.Load_gen.queries);
      ("elapsed_s", `F r.Serve.Load_gen.elapsed_s);
      ("qps", `F r.Serve.Load_gen.qps);
      ("p50_us", `F r.Serve.Load_gen.p50_us);
      ("p90_us", `F r.Serve.Load_gen.p90_us);
      ("p99_us", `F r.Serve.Load_gen.p99_us);
      ("p999_us", `F r.Serve.Load_gen.p999_us);
      ("max_us", `F r.Serve.Load_gen.max_us);
      ("write_p99_us", `F r.Serve.Load_gen.write_p99_us);
    ];
  if r.Serve.Load_gen.ops = 0 || r.Serve.Load_gen.errors > 0 then exit 1

(* dsdg follow: a WAL-shipped read replica of a running dsdg serve.
   Opens --store DIR with the leader's K and tails the replication
   streams (at K=1 a snapshot over the wire re-seeds a replica the
   leader compacted past; K>1 replicas start empty or from a pinned
   backup copied into DIR).  With
   --socket/--port the replica also serves the full query grammar
   locally; mutations get a redirect error naming the leader.  SIGTERM
   stops tailing and closes the replica store cleanly -- the directory
   is an ordinary store, promotable with a plain `dsdg serve DIR`. *)
let follow_cmd from_addr from_socket dir socket host port (index : Index_config.t) poll =
  if poll <= 0. then die_usage "--poll must be > 0 seconds";
  let leader =
    match (from_socket, from_addr) with
    | Some _, Some _ -> die_usage "--from and --from-socket are mutually exclusive"
    | Some path, None -> `Unix path
    | None, Some hp -> (
      match String.rindex_opt hp ':' with
      | Some i -> (
        let h = String.sub hp 0 i in
        match int_of_string_opt (String.sub hp (i + 1) (String.length hp - i - 1)) with
        | Some p when p > 0 && h <> "" -> `Tcp (h, p)
        | _ -> die_usage "--from expects HOST:PORT (got %s)" hp)
      | None -> die_usage "--from expects HOST:PORT (got %s)" hp)
    | None, None -> die_usage "name the leader: --from HOST:PORT or --from-socket PATH"
  in
  with_store_errors ~dir (fun () ->
      let f =
        try
          Serve.Follower.start ~index ~poll ~leader ~dir ()
        with Failure msg ->
          Printf.eprintf "dsdg: %s\n" msg;
          exit 1
      in
      Printf.printf "following %s into %s%s\n%!"
        (addr_name leader)
        dir
        (match List.assoc_opt "shards" ((Serve.Follower.replica f).stats ()) with
        | Some k when k > 1 -> Printf.sprintf " (sharded, K=%d)" k
        | _ -> "");
      let serve listen = Some (Serve.Server.start (Serve.Follower.read_only f) listen) in
      let srv =
        match (socket, port) with
        | Some path, _ -> serve (`Unix path)
        | None, Some p -> serve (`Tcp (host, p))
        | None, None -> None
      in
      (match (srv, socket) with
      | Some _, Some path -> Printf.printf "replica serving on unix socket %s (read-only)\n%!" path
      | Some s, None ->
        Printf.printf "replica serving on %s:%d (read-only)\n%!" host
          (match Serve.Server.port s with Some p -> p | None -> 0)
      | None, _ -> ());
      let stop = Atomic.make false in
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set stop true)))
        [ Sys.sigterm; Sys.sigint ];
      let teardown () =
        (* stopping a server over Follower.read_only stops the
           follower and closes the replica store *)
        match srv with Some s -> Serve.Server.stop s | None -> Serve.Follower.stop f
      in
      let tick = ref 0 in
      let rec watch () =
        if Atomic.get stop then ()
        else
          match Serve.Follower.error f with
          | Some e ->
            Printf.eprintf "dsdg: replication stopped: %s\n" e;
            teardown ();
            exit 2
          | None ->
            if !tick mod 10 = 0 then begin
              let lag = Serve.Follower.lag f in
              Printf.printf "lag: %d record(s), %d epoch(s); applied %d; %s\n%!"
                lag.Serve.Follower.lg_serials lag.Serve.Follower.lg_epochs
                lag.Serve.Follower.lg_applied
                (if lag.Serve.Follower.lg_connected then "connected" else "reconnecting")
            end;
            incr tick;
            Thread.delay 0.2;
            watch ()
      in
      watch ();
      teardown ();
      Printf.printf "replica stopped cleanly at %s\n" dir)

let demo_cmd ops =
  let open Dsdg_workload in
  let st = Text_gen.rng 7 in
  with_collection ~index:Index_config.default ~config:Store.Durable.default_config ~layout:`Read
    None
  @@ fun o ->
  let live = ref [] in
  for _ = 1 to ops do
    if Random.State.float st 1.0 < 0.7 || !live = [] then
      live := Subject.insert o.coll (Text_gen.english_like st ~len:(30 + Random.State.int st 100)) :: !live
    else begin
      match !live with
      | id :: rest ->
        ignore (Subject.delete o.coll id);
        live := rest
      | [] -> ()
    end
  done;
  List.iter (fun w -> Printf.printf "count %-8S = %d\n" w (o.coll.count w)) [ "data"; "index"; "query" ];
  print_stats o

(* Scripted churn workload + full observability dump: the living
   counterpart of DESIGN.md's "Observability" section. With --store the
   workload runs through the durable store, so the dump also shows the
   store scope: WAL appends/fsyncs, checkpoint latency, snapshot bytes;
   with --shards the "shard" scope shows scatter/gather next to each
   shard's own core/store scopes. *)
let churn ~ops o =
  let open Dsdg_workload in
  let c = o.coll in
  let st = Text_gen.rng 42 in
  let live = ref [] in
  let searches = ref 0 and hits = ref 0 in
  for i = 1 to ops do
    let r = Random.State.float st 1.0 in
    if r < 0.55 || !live = [] then
      live := Subject.insert c (Text_gen.english_like st ~len:(30 + Random.State.int st 120)) :: !live
    else if r < 0.8 then begin
      (* delete a random live doc; occasionally retry a dead id to
         exercise the failed-delete path *)
      match !live with
      | id :: rest ->
        ignore (Subject.delete c id);
        if i mod 17 = 0 then ignore (Subject.delete c id);
        live := rest
      | [] -> ()
    end
    else begin
      incr searches;
      hits := !hits + c.count (if i mod 2 = 0 then "data" else "query")
    end
  done;
  Printf.printf "workload  : %d ops (%d searches, %d pattern hits)\n" ops !searches !hits;
  print_stats o;
  if c.total_symbols () > 0 then begin
    (* Entropy budget: reconstruct the live text through the collection
       itself and compare measured bits/symbol with H0 and H2. *)
    let buf = Buffer.create (c.total_symbols ()) in
    List.iter
      (fun id ->
        (* documents have unknown length: binary-search down from a
           generous cap until extract accepts the range *)
        let rec grab len =
          if len >= 1 then
            match c.extract ~doc:id ~off:0 ~len with
            | Some s -> Buffer.add_string buf s
            | None -> grab (len / 2)
        in
        grab 4096)
      !live;
    let text = Buffer.contents buf in
    if String.length text > 0 then begin
      let open Dsdg_entropy in
      Printf.printf "entropy   : H0=%.3f H2=%.3f bits/symbol (paper budget nHk + o(n))\n"
        (Entropy.h0 text) (Entropy.hk ~k:2 text)
    end
  end;
  print_newline ()

let stats_cmd ops (index : Index_config.t) no_obs shards store sync checkpoint_every =
  let open Dsdg_obs in
  if no_obs then Obs.set_enabled false;
  let config = store_config ~sync ~checkpoint_every ~jobs:index.jobs in
  (* the collection closes before the dump, joining its worker domains,
     so the executor counters (exec_submitted/completed/..., queue
     depth, wall/handoff latency) are final; they live in the same
     scope as the transformation's *)
  let scopes =
    with_collection ~index ~config ~layout:(`Flag shards) store (fun o ->
        churn ~ops o;
        let idxs = Sh.indexes o.sh in
        (* one private scope per shard, all under the engine's name *)
        Array.to_list
          (Array.mapi
             (fun i idx ->
               let title = if Array.length idxs > 1 then Printf.sprintf "shard %d: " i else "" in
               (title, Dynamic_index.obs_scope idx))
             idxs))
  in
  if no_obs then print_endline "observability disabled (--no-obs): no counters recorded"
  else
    List.iter
      (fun (title, s) -> print_string (Obs.render ~title s))
      (scopes @ List.map (fun s -> ("", s)) (Obs.registered ()))

(* Differential fuzzing: the CLI face of Dsdg_check (DESIGN.md section 6).
   A failing stream is shrunk to a minimal trace, saved, and the replay
   one-liner printed -- a CI failure reproduces with a single command.
   With --store DIR the same op streams instead drive the
   kill-and-recover sweep of Shard_check.crash: crash (optionally
   tearing the final WAL record) at every stride-th op, recover, and
   diff the recovered index against the model. *)
let fuzz_cmd seed ops streams variant backend (index : Index_config.t) fault profile replay
    trace_dir shards store sync checkpoint_every kill_stride follow rel =
  let open Dsdg_check in
  let base = Runner.fuzz_index in
  let targets = Runner.select_targets ~variant ~backend () in
  (* a target's name as a directory-name component *)
  let slug tg = String.map (function '/' -> '-' | c -> c) tg.Runner.tg_name in
  (* a recognized hint key whose value does not parse would otherwise
     replay under the default setting and "pass" without testing it *)
  let malformed_hint file field =
    die_usage "trace %s has a malformed hint %s; fix or remove it" file field
  in
  let load_hint file =
    match Trace.load_hint file with Ok h -> h | Error field -> malformed_hint file field
  in
  (* A trace records every setting its run used beyond the fuzz
     defaults; replaying it under a different shape (including with the
     flag omitted) would "pass" without testing anything, so a mismatch
     is a usage error. *)
  let enforce_hint file (index : Index_config.t) =
    let h = load_hint file in
    if h.Trace.h_rel then
      die_usage "trace %s is a relation trace; replay it with dsdg fuzz --rel --replay %s" file file;
    let need_shards =
      match h.Trace.h_shards with
      | Some k when k <> shards -> [ ("shards", string_of_int k, string_of_int shards) ]
      | _ -> []
    in
    match Index_config.mismatches h.Trace.h_index index with
    | Error field -> malformed_hint file field
    | Ok mismatches -> (
      match need_shards @ mismatches with
      | (flag, want, got) :: _ ->
        die_usage "trace %s was recorded with --%s %s (this invocation has --%s %s); pass --%s %s"
          file flag want flag got flag want
      | [] -> ())
  in
  let stream_ops index =
    match replay with
    | Some file ->
      enforce_hint file index;
      (try Trace.load file
       with Trace.Parse_error e ->
         prerr_endline (Trace.parse_error_message ~file e);
         exit 2)
    | None -> Opgen.generate ~profile:(profile_of_string profile) ~seed ~ops ()
  in
  (* save a failing trace with the hint that replays it, and return the
     replay flags that go with that hint *)
  let save_trace ?shards ~name (index : Index_config.t) ops =
    let dir = match trace_dir with Some d -> d | None -> Filename.get_temp_dir_name () in
    let path = Filename.concat dir name in
    Trace.save
      ~hint:{ Trace.no_hint with h_shards = shards; h_index = Index_config.to_hint ~base index }
      path ops;
    (path, Index_config.to_flags ~base index)
  in
  match store with
  | _ when rel ->
    (* relation differential mode: streams of relation ops driving the
       dynamic relation, cross-checked against the naive pair-set model
       after every op *)
    if store <> None || follow then
      die_usage "--rel is an in-memory differential mode; it does not combine with --store or --follow";
    let fault_v =
      match fault with
      | "none" -> None
      | s -> (
        match Rel_check.fault_of_string s with
        | Some f -> Some f
        | None -> die_usage "--rel supports --fault none | rel-lost-remove, not %s" s)
    in
    let conclude ~seed_used = function
      | Runner.Pass -> ()
      | Runner.Fail { failure; shrunk; trace = _ } ->
        print_string
          (Runner.report ?seed:seed_used ~show:Rel_check.rop_to_string ~failure ~shrunk ());
        let dir = match trace_dir with Some d -> d | None -> Filename.get_temp_dir_name () in
        let path =
          Filename.concat dir
            (match seed_used with
            | Some s -> Printf.sprintf "dsdg-fuzz-rel-seed%d.trace" s
            | None -> "dsdg-fuzz-rel-replay.trace")
        in
        Rel_check.save ?fault:fault_v path shrunk;
        Printf.printf "minimal trace saved to %s\nreplay: dsdg fuzz --rel --replay %s%s\n" path path
          (match fault_v with Some f -> " --fault " ^ Rel_check.fault_to_string f | None -> "");
        exit 1
    in
    (match replay with
    | Some file ->
      (* a document trace replayed as relation ops would "pass" without
         testing anything *)
      if not (load_hint file).Trace.h_rel then
        die_usage
          "trace %s is not a relation trace (no rel= hint); drop --rel, or replay a trace \
           saved by dsdg fuzz --rel"
          file;
      let trace =
        try Rel_check.load file
        with Trace.Parse_error e ->
          prerr_endline (Trace.parse_error_message ~file e);
          exit 2
      in
      Printf.printf "replaying %d relation op(s)\n%!" (List.length trace);
      conclude ~seed_used:None (Rel_check.check ?fault:fault_v trace);
      Printf.printf "replay OK: the relation agrees with the pair-set model after every op\n"
    | None ->
      Printf.printf "rel fuzzing %d stream(s) x %d ops%s\n%!" streams ops
        (match fault_v with
        | Some f -> Printf.sprintf " with planted fault %s" (Rel_check.fault_to_string f)
        | None -> "");
      for s = 0 to streams - 1 do
        let stream_seed = seed + s in
        conclude ~seed_used:(Some stream_seed)
          (Rel_check.run_stream ?fault:fault_v ~seed:stream_seed ~ops ());
        if streams > 1 then Printf.printf "stream seed=%d: ok\n%!" stream_seed
      done;
      Printf.printf "rel fuzz OK: %d stream(s) x %d ops, byte-identical to the pair-set model\n"
        streams ops)
  | _ when follow ->
    (* leader/follower differential mode: a real cluster per target --
       leader store + server on an ephemeral port, WAL-shipped replica,
       convergence checks at quiesce points, then the failover sweep
       (quiesce, kill the leader, promote the follower, verify every
       acked write, keep writing on the promoted store) *)
    let dir =
      match store with
      | Some d -> d
      | None -> die_usage "--follow needs --store DIR as cluster scratch space"
    in
    if fault <> "none" && fault <> "skip-top-clean" then
      die_usage
        "--follow supports --fault none | skip-top-clean (planted in the replica's index, \
         proving the divergence oracle has teeth), not %s"
        fault;
    let index = { index with fault = List.assoc_opt fault Index_config.faults } in
    let sync_v =
      match Store.Wal.sync_of_string sync with
      | Ok s -> s
      | Error msg -> die_usage "--sync: %s" msg
    in
    let sweep_ops = stream_ops index in
    let checkpoint_every = if checkpoint_every > 0 then checkpoint_every else 7 in
    let counts = List.sort_uniq compare [ 1; shards ] in
    let n = List.length sweep_ops in
    let stride = if kill_stride > 0 then kill_stride else max 1 (n / 4) in
    Printf.printf
      "leader/follower: %d op(s), K in {%s}, quiesce every 16, failover kill every %d op(s), \
       %d target(s), scratch under %s\n%!"
      n
      (String.concat "," (List.map string_of_int counts))
      stride
      (List.length targets * List.length counts)
      dir;
    let failed = ref false in
    List.iter
      (fun tg ->
        let ix = Runner.target_index tg index in
        List.iter
          (fun k ->
            let name = Printf.sprintf "%s K=%d" tg.Runner.tg_name k in
            let scratch = Filename.concat dir (Printf.sprintf "follow-%s-k%d" (slug tg) k) in
            let conv =
              Serve.Repl_check.convergence ~index:ix ~shards:k ~sync:sync_v ~checkpoint_every
                ~dir:scratch ~ops:sweep_ops ()
            in
            Printf.printf "%-24s %-12s %s\n%!" name "converge"
              (Serve.Repl_check.outcome_to_string conv);
            if conv.Serve.Repl_check.rc_failures <> [] then begin
              failed := true;
              (* a planted fault diverges by design; the shrinker
                 replays without it, so there is nothing to minimize *)
              if k = 1 && index.fault = None then begin
                let shrunk =
                  Serve.Repl_check.shrink ~index:ix ~sync:sync_v ~checkpoint_every ~dir:scratch
                    sweep_ops
                in
                let path, flags = save_trace ~name:"dsdg-fuzz-follow.trace" index shrunk in
                let v, b = Scanf.sscanf tg.Runner.tg_name "%[^/]/%s" (fun v b -> (v, b)) in
                Printf.printf
                  "minimal diverging trace (%d ops) saved to %s\nreplay: dsdg fuzz --follow \
                   --replay %s --store %s --variant %s --backend %s --sync %s \
                   --checkpoint-every %d%s\n"
                  (List.length shrunk) path path dir v b sync checkpoint_every flags
              end
            end
            (* a planted fault makes failover pointless (the replica
               is already known-corrupt); otherwise prove promotion *)
            else if index.fault = None then begin
              let fo =
                Serve.Repl_check.failover_sweep ~index:ix ~shards:k ~sync:sync_v ~checkpoint_every
                  ~torn:true ~stride ~dir:scratch ~ops:sweep_ops ()
              in
              Printf.printf "%-24s %-12s %s\n%!" name "failover" (Runner.kill_summary fo);
              if fo.Runner.kc_failures <> [] then failed := true
            end)
          counts)
      targets;
    if !failed then exit 1;
    Printf.printf
      "leader/follower OK: every quiesce point converged and every promoted follower re-served \
       all acked writes\n"
  | Some dir ->
    (* kill-and-recover mode: the scheduling faults do not apply here;
       the planted fault is the torn write. With --shards K the sweep
       crashes a sharded store. *)
    let torn =
      match fault with
      | "none" -> false
      | "torn-write" -> true
      | s ->
        die_usage "--store kill-and-recover mode supports --fault none | torn-write, not %s" s
    in
    let config =
      store_config ~sync
        ~checkpoint_every:(if checkpoint_every > 0 then checkpoint_every else 7)
        ~jobs:index.jobs
    in
    domain_budget ~indexes:shards ~checkpoint_jobs:config.checkpoint_jobs
      ~recovery_jobs:(if shards > 1 then 2 else 0) index;
    let sweep_ops = stream_ops index in
    let n = List.length sweep_ops in
    let stride = if kill_stride > 0 then kill_stride else max 1 (n / 16) in
    Printf.printf
      "kill-and-recover: %s%d op(s), crash every %d op(s)%s, %d target(s), scratch under %s\n%!"
      (if shards > 1 then Printf.sprintf "K=%d, " shards else "")
      n stride
      (if torn then " with torn final WAL records" else "")
      (List.length targets) dir;
    let failed = ref false in
    List.iter
      (fun tg ->
        let index = Runner.target_index tg index in
        let show name o =
          Printf.printf "%-20s %-10s %s\n%!" tg.Runner.tg_name name (Runner.kill_summary o);
          if o.Runner.kc_failures <> [] then failed := true
        in
        let sub what = Filename.concat dir (what ^ slug tg) in
        show "kill"
          (Runner.sweep ~stride
             (Shard.Shard_check.crash ~index ~config ~torn ~shards ~dir:(sub "kill-") ())
             sweep_ops))
      targets;
    if !failed then exit 1;
    Printf.printf "kill-and-recover OK: every crash point re-served all acked writes\n"
  | None ->
    (match fault with
    | "torn-write" ->
      die_usage
        "--fault torn-write plants a half-written WAL record in the durable store; add --store DIR"
    | "rel-lost-remove" -> die_usage "--fault rel-lost-remove plants a relation defect; add --rel"
    | _ -> ());
    (* the enum admits nothing else: every other value names an index fault *)
    let index = { index with fault = List.assoc_opt fault Index_config.faults } in
    if index.fault = Some `Worker_crash && index.jobs = 0 then
      die_usage "--fault worker-crash requires --jobs >= 1 (it sabotages the pooled executor)";
    (* with --shards K every target is joined by sharded collections over
       the same settings, K in {1, 2, K} *)
    let counts = if shards > 1 then List.sort_uniq compare [ 1; min 2 shards; shards ] else [] in
    (* every subject of a stream is open at once *)
    domain_budget
      ~indexes:(List.length targets * List.fold_left ( + ) 1 counts)
      ~checkpoint_jobs:0 ~recovery_jobs:0 index;
    let subjects =
      List.concat_map
        (fun tg ->
          Runner.subjects ~index [ tg ]
          @ Shard.Shard_check.subjects ~index:(Runner.target_index tg index) ~name:tg.Runner.tg_name
              counts)
        targets
    in
    let against =
      String.concat ", " (List.map (fun t -> t.Runner.tg_name) targets)
      ^
      if counts = [] then ""
      else
        Printf.sprintf ", each also K in {%s}" (String.concat "," (List.map string_of_int counts))
    in
    let conclude ~seed_used = function
      | Runner.Pass -> ()
      | Runner.Fail { failure; shrunk; _ } ->
        print_string (Runner.report ?seed:seed_used ~show:Trace.op_to_string ~failure ~shrunk ());
        let shards = if shards > 1 then Some shards else None in
        let path, flags =
          save_trace ?shards
            ~name:
              (match seed_used with
              | Some s -> Printf.sprintf "dsdg-fuzz-seed%d.trace" s
              | None -> "dsdg-fuzz-replay.trace")
            index shrunk
        in
        Printf.printf
          "minimal trace saved to %s\nreplay: dsdg fuzz --replay %s%s --variant %s --backend %s%s\n"
          path path
          (match shards with Some k -> Printf.sprintf " --shards %d" k | None -> "")
          variant backend flags;
        exit 1
    in
    (match replay with
    | Some file ->
      let trace = stream_ops index in
      Printf.printf "replaying %d ops from %s against %s\n%!" (List.length trace) file against;
      conclude ~seed_used:None (Runner.check subjects trace);
      Printf.printf "replay OK: all subjects agree with the model, all invariants hold\n"
    | None ->
      Printf.printf "fuzzing %d stream(s) x %d ops against %s\n%!" streams ops against;
      let profile = profile_of_string profile in
      for s = 0 to streams - 1 do
        let stream_seed = seed + s in
        conclude ~seed_used:(Some stream_seed)
          (Runner.run_stream ~profile ~seed:stream_seed ~ops subjects);
        if streams > 1 then Printf.printf "stream seed=%d: ok\n%!" stream_seed
      done;
      Printf.printf "fuzz OK: %d stream(s) x %d ops, %d subject(s), model + invariants clean\n"
        streams ops (List.length subjects))

(* Graph workload driver: the CLI face of the compressed dynamic graph
   (DESIGN.md section 15). Builds a web-crawl-shaped edge stream (or
   re-ingests a saved pair set) into a Digraph, runs neighbor scans and
   BFS traversals, and prints throughput and bits/edge. The saved
   artifact is the bare pair set (Codec relation container). *)
let graph_cmd nodes edges seed tau queries save_path load_path =
  if tau < 1 then die_usage "--tau must be >= 1 (got %d)" tau;
  if queries < 0 then die_usage "--queries must be >= 0 (got %d)" queries;
  let module G = Binrel.Digraph in
  let module Gen = Dsdg_workload.Graph_gen in
  let st = Random.State.make [| seed; 0x67af |] in
  let now () = Unix.gettimeofday () in
  let stream, g, build_s =
    match load_path with
    | Some file ->
      let pairs =
        try Store.Codec.read_relation file
        with Store.Codec.Corrupt { file; section; reason } ->
          Printf.eprintf "%s: corrupt %S section: %s\n" file section reason;
          exit 2
      in
      let t0 = now () in
      let g = G.of_edges ~tau pairs in
      Printf.printf "loaded %d edge(s) from %s\n" (G.edge_count g) file;
      (Array.of_list pairs, g, now () -. t0)
    | None ->
      if nodes < 2 then die_usage "--nodes must be >= 2 (got %d)" nodes;
      if edges < 1 then die_usage "--edges must be >= 1 (got %d)" edges;
      let stream = Gen.web_crawl st ~nodes ~edges in
      let g = G.create ~tau () in
      let t0 = now () in
      Array.iter (fun (u, v) -> ignore (G.add_edge g u v)) stream;
      (stream, g, now () -. t0)
  in
  let live = G.edge_count g in
  Printf.printf "%d live edge(s), built in %.2fs (%.0f inserts/s)\n" live build_s
    (float_of_int (Array.length stream) /. (build_s +. 1e-9));
  if Array.length stream = 0 then die_usage "empty graph: nothing to query";
  (* neighbor scans: out-degree-biased sources, forward and reverse *)
  let nq = Gen.neighbor_queries st ~edges:stream ~count:(max 1 queries) in
  let scanned = ref 0 in
  let t0 = now () in
  Array.iter
    (fun u ->
      G.iter_successors g u ~f:(fun _ -> incr scanned);
      G.iter_predecessors g u ~f:(fun _ -> incr scanned))
    nq;
  let scan_s = now () -. t0 in
  Printf.printf "neighbor scans: %d source(s), %d edge(s) touched, %.0f edges/s\n"
    (Array.length nq) !scanned
    (float_of_int !scanned /. (scan_s +. 1e-9));
  (* BFS over successor lists from edge-biased sources *)
  let sources = Gen.bfs_sources st ~edges:stream ~count:(max 1 (queries / 10)) in
  let visited_total = ref 0 in
  let t0 = now () in
  Array.iter
    (fun src ->
      let seen = Hashtbl.create 256 in
      let q = Queue.create () in
      Hashtbl.replace seen src ();
      Queue.push src q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        incr visited_total;
        G.iter_successors g u ~f:(fun v ->
            if not (Hashtbl.mem seen v) then begin
              Hashtbl.replace seen v ();
              Queue.push v q
            end)
      done)
    sources;
  let bfs_s = now () -. t0 in
  Printf.printf "bfs: %d traversal(s), %d node visit(s), %.0f nodes/s\n" (Array.length sources)
    !visited_total
    (float_of_int !visited_total /. (bfs_s +. 1e-9));
  (* churn: delete then re-insert a stride of the stream *)
  let stride = max 1 (Array.length stream / 1000) in
  let churned = ref 0 in
  let t0 = now () in
  Array.iteri
    (fun i (u, v) ->
      if i mod stride = 0 then begin
        ignore (G.remove_edge g u v);
        ignore (G.add_edge g u v);
        churned := !churned + 2
      end)
    stream;
  let churn_s = now () -. t0 in
  Printf.printf "churn: %d update(s), %.0f updates/s\n" !churned
    (float_of_int !churned /. (churn_s +. 1e-9));
  let bits = G.space_bits g in
  let s = G.stats g in
  Printf.printf "space: %d bits total, %.1f bits/edge (merges %d, purges %d, rebuilds %d)\n" bits
    (float_of_int bits /. float_of_int (max 1 live))
    s.Binrel.Dyn_binrel.merges s.purges s.global_rebuilds;
  match save_path with
  | Some path ->
    Store.Codec.write_relation path (G.edges g);
    Printf.printf "saved %d edge(s) to %s (pair set only)\n" live path
  | None -> ()

let files_arg = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE")
let whole_arg = Arg.(value & flag & info [ "whole" ] ~doc:"Index whole files instead of lines.")
let tau_arg default = Arg.(value & opt int default & info [ "tau" ] ~doc:"Lazy-deletion threshold tau.")
let ops_arg = Arg.(value & opt int 500 & info [ "ops" ] ~doc:"Demo operations.")
let shards_arg =
  let positive =
    Arg.conv'
      ( (fun s ->
          match int_of_string_opt s with
          | Some k when k >= 1 -> Ok k
          | _ -> Error (Printf.sprintf "expected a shard count >= 1, got %s" s)),
        Format.pp_print_int )
  in
  Arg.(value & opt positive 1
       & info [ "shards" ] ~docv:"K"
           ~doc:"Split documents across $(docv) index shards, global id g on shard g mod $(docv) (each shard with its own writer path, executor jobs, reader pool and, with --store, durable sub-store); queries scatter-gather across the shard views. For fuzz, fans the op stream over shard counts {1, 2, $(docv)} and differentially compares against the model and the K=1 index (with --store: the sharded kill-and-recover sweep). For load, annotates the BENCH row with the dialed server's shard count.")

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"DIR"
           ~doc:"Durable store directory: recover on open, write-ahead-log every mutation. For fuzz, switches to the kill-and-recover sweep using DIR as scratch space.")

let sync_arg =
  Arg.(value & opt string "always"
       & info [ "sync" ] ~docv:"POLICY"
           ~doc:"WAL fsync policy: always | never | N (fsync every N records).")

let checkpoint_every_arg =
  Arg.(value & opt int 0
       & info [ "checkpoint-every" ] ~docv:"K"
           ~doc:"Snapshot the index and compact the WAL every K updates (0 = never automatically; fuzz --store defaults to 7).")

(* --- index settings: one Index_config.t per invocation --- *)

let variant_arg =
  Arg.(value & opt (enum (Index_config.variants @ [ ("t3", Index_config.Amortized_loglog) ]))
         Index_config.default.variant
       & info [ "variant" ] ~doc:"amortized | loglog (alias: t3, the Transformation 3 doubling schedule) | worst-case")

let backend_arg =
  Arg.(value & opt (enum Index_config.backends) Index_config.default.backend
       & info [ "backend" ] ~doc:"fm | sa | csa")

(* Every index setting but the planted fault, from flags: Cmdliner
   parses the enums and Index_config.validate checks the ranges, so
   either failure exits 124 before any store is opened or socket bound.
   [base] supplies the defaults and [shape] the variant and backend;
   the runtime settings named in [fixed] stay at [base] and get no flag,
   for the subcommands on which they would have no effect. *)
let config_term ?(fixed = []) ~(base : Index_config.t) shape =
  let flag key v term = if List.mem key fixed then Term.const v else term in
  let int_arg name default ?docv doc = Arg.(value & opt int default & info [ name ] ?docv ~doc) in
  let make (variant, backend) sample tau jobs readers retain_epochs =
    try
      Ok
        (Index_config.validate
           { base with variant; backend; sample; tau; jobs; readers; retain_epochs })
    with Invalid_argument msg -> Error msg
  in
  Term.(
    cli_parse_result'
      (const make $ shape
      $ int_arg "sample" base.sample "SA sampling rate s."
      $ tau_arg base.tau
      $ int_arg "jobs" base.jobs
          "Background-rebuild worker domains of the worst-case variant (0 = deterministic synchronous \
           mode; the amortized variants rebuild inline). With --store, any value >= 1 also moves \
           checkpoint folds onto a worker domain."
      $ flag `Readers base.readers
          (int_arg "readers" base.readers
             "Reader-pool domains serving queries from the latest published snapshot (0 = queries run on the caller's domain).")
      $ flag `Retain_epochs base.retain_epochs
          (int_arg "retain-epochs" base.retain_epochs ~docv:"N"
             "Keep the $(docv) most recently published views resolvable for point-in-time reads (interactive ~EPOCH ?PAT / ~EPOCH #PAT); 0 retains only the live view. Pinned views survive eviction regardless.")))

let shape_t = Term.(const (fun v b -> (v, b)) $ variant_arg $ backend_arg)
let index_config_t = config_term ~base:Index_config.default shape_t

(* save never queries and stats never reads a past epoch *)
let save_config_t = config_term ~fixed:[ `Readers; `Retain_epochs ] ~base:Index_config.default shape_t
let stats_config_t = config_term ~fixed:[ `Retain_epochs ] ~base:Index_config.default shape_t

let store_dir_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Store directory.")

let save_files_arg = Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"FILE")

let index_t =
  Cmd.v (Cmd.info "index" ~doc:"Index files and answer queries interactively")
    Term.(
      const index_cmd $ files_arg $ whole_arg $ index_config_t $ shards_arg $ store_arg $ sync_arg
      $ checkpoint_every_arg)

let pinned_arg =
  Arg.(value & opt (some string) None
       & info [ "pinned" ] ~docv:"DEST"
           ~doc:"Pin the store's state before indexing the new files, and back that pinned pre-save view up into $(docv) (a fresh store directory recovering to exactly the pinned epoch) -- a consistent backup taken while the save keeps writing.")

let save_t =
  Cmd.v
    (Cmd.info "save" ~doc:"Index files into a durable store directory and checkpoint")
    Term.(
      const save_cmd $ store_dir_pos $ save_files_arg $ whole_arg $ save_config_t $ sync_arg
      $ pinned_arg)

let open_t =
  Cmd.v
    (Cmd.info "open" ~doc:"Recover an index from a store directory and answer queries interactively")
    Term.(
      const open_cmd $ store_dir_pos $ index_config_t $ sync_arg $ checkpoint_every_arg)

(* --- service plane: serve + load --- *)

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on (serve) or dial (load) a Unix-domain socket at $(docv) instead of TCP.")

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"ADDR" ~doc:"TCP address to bind or dial (numeric).")

let port_arg =
  Arg.(value & opt int 7433
       & info [ "port" ] ~docv:"PORT" ~doc:"TCP port; with $(b,serve), 0 picks an ephemeral port.")

let max_batch_arg =
  Arg.(value & opt int 256
       & info [ "max-batch" ] ~docv:"N"
           ~doc:"Writes per group commit: the writer drains up to $(docv) queued mutations into one WAL append + one fsync. 1 degenerates to per-op fsync.")

let max_frame_arg =
  Arg.(value & opt int (1 lsl 20)
       & info [ "max-frame" ] ~docv:"BYTES"
           ~doc:"Per-connection request frame size bound; an overlong frame closes that connection.")

let max_conns_arg =
  Arg.(value & opt int 1024
       & info [ "max-conns" ] ~docv:"N" ~doc:"Concurrent connections before new accepts are rejected.")

let timeout_arg =
  Arg.(value & opt float 30.
       & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Per-connection socket read/write timeout (0 = no timeout).")

let serve_t =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a store over a socket with group-committed writes"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Recover the store in $(i,DIR) and serve it. Queries run against the \
              epoch-published read plane (add $(b,--readers) for a reader-domain pool); \
              mutations from all connections are funneled to one writer thread and \
              committed in groups of up to $(b,--max-batch): one WAL append, one fsync, \
              then every client in the batch gets its acknowledgment. SIGTERM or SIGINT \
              triggers the graceful drain: in-flight requests finish, the write queue \
              flushes, the store checkpoints, and the process exits 0.";
         ])
    Term.(
      const serve_cmd $ store_dir_pos $ socket_arg $ host_arg $ port_arg $ index_config_t
      $ shards_arg $ sync_arg $ checkpoint_every_arg $ max_batch_arg $ max_frame_arg
      $ max_conns_arg $ timeout_arg)

(* --- follow: WAL-shipped read replica --- *)

let from_arg =
  Arg.(value & opt (some string) None
       & info [ "from" ] ~docv:"HOST:PORT" ~doc:"The leader to replicate from, over TCP.")

let from_socket_arg =
  Arg.(value & opt (some string) None
       & info [ "from-socket" ] ~docv:"PATH"
           ~doc:"The leader to replicate from, over a Unix-domain socket.")

let follow_store_arg =
  Arg.(required & opt (some string) None
       & info [ "store" ] ~docv:"DIR"
           ~doc:"Replica store directory, of the leader's shard count: kept in sync by tailing each shard's WAL. A shard the leader compacted past (a fresh replica included) is re-seeded with that shard's newest snapshot over the wire; a replica may also start from a pinned backup copied here.")

let follow_port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"PORT"
           ~doc:"Also serve the replica read-only on this TCP port (0 picks an ephemeral port); mutations get a redirect error naming the leader.")

let follow_poll_arg =
  Arg.(value & opt float 0.02
       & info [ "poll" ] ~docv:"SECONDS" ~doc:"Idle delay between empty replication polls.")

let follow_t =
  Cmd.v
    (Cmd.info "follow"
       ~doc:"Tail a running dsdg serve into a local read replica"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Replicate a leader started with $(b,dsdg serve) into $(b,--store) $(i,DIR): \
              bootstrap (snapshot over the wire if the leader already compacted), then poll \
              the leader's replication streams and replay shipped WAL records through the \
              replica's own write path. The leader only ships records below its group-commit \
              fsync bound, so the replica never observes an unacknowledged write. With \
              $(b,--socket) or $(b,--port) the replica serves the full query grammar \
              read-only; writes are refused with a redirect naming the leader. A replication \
              lag line is printed every ~2s. SIGTERM/SIGINT stops tailing and closes the \
              replica cleanly -- the directory is an ordinary store, promotable with a plain \
              $(b,dsdg serve) $(i,DIR).";
         ])
    Term.(
      const follow_cmd $ from_arg $ from_socket_arg $ follow_store_arg $ socket_arg $ host_arg
      $ follow_port_arg $ index_config_t $ follow_poll_arg)

let clients_arg =
  Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client sessions.")

let load_ops_arg =
  Arg.(value & opt int 4000
       & info [ "ops" ] ~docv:"N" ~doc:"Total operations, split across the client sessions.")

let load_seed_arg =
  Arg.(value & opt int 42
       & info [ "seed" ] ~doc:"Base random seed (session i draws from seed + 31i).")

let mix_weight name default doc = Arg.(value & opt int default & info [ name ] ~docv:"W" ~doc)
let w_insert_arg = mix_weight "insert-weight" 20 "Relative weight of inserts in the op mix."
let w_delete_arg = mix_weight "delete-weight" 5 "Relative weight of deletes in the op mix."
let w_search_arg = mix_weight "search-weight" 50 "Relative weight of searches in the op mix."
let w_count_arg = mix_weight "count-weight" 15 "Relative weight of counts in the op mix."
let w_extract_arg = mix_weight "extract-weight" 10 "Relative weight of extracts in the op mix."

let load_t =
  Cmd.v
    (Cmd.info "load"
       ~doc:"Generate client load against a running dsdg serve"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Closed-loop load generator: $(b,--clients) threads, each with its own \
              connection and deterministic rng, firing a Zipf-skewed operation mix \
              ($(b,--insert-weight) etc.). Latency is recorded raw per operation, so the \
              reported p999 is exact, not a histogram-bucket bound. Prints a one-line \
              summary and appends a BENCH JSON row to $(b,DSDG_BENCH_JSON) (default \
              BENCH_RESULTS.json). Exits 1 if any operation errored or none completed.";
         ])
    Term.(
      const loadgen_cmd $ socket_arg $ host_arg $ port_arg $ clients_arg $ load_ops_arg
      $ load_seed_arg $ timeout_arg $ shards_arg $ w_insert_arg $ w_delete_arg $ w_search_arg
      $ w_count_arg $ w_extract_arg)

let demo_t = Cmd.v (Cmd.info "demo" ~doc:"Synthetic churn demo") Term.(const demo_cmd $ ops_arg)

let graph_nodes_arg =
  Arg.(value & opt int 100_000
       & info [ "nodes" ] ~docv:"N" ~doc:"Page universe of the generated crawl.")

let graph_edges_arg =
  Arg.(value & opt int 1_000_000
       & info [ "edges" ] ~docv:"M" ~doc:"Distinct directed edges to generate.")

let graph_queries_arg =
  Arg.(value & opt int 1000
       & info [ "queries" ] ~docv:"N"
           ~doc:"Neighbor-scan sources to draw (BFS runs $(docv)/10 traversals).")

let graph_save_arg =
  Arg.(value & opt (some string) None
       & info [ "save" ] ~docv:"FILE"
           ~doc:"After the workload, save the live pair set into $(docv) (Codec relation \
                 container).")

let graph_load_arg =
  Arg.(value & opt (some file) None
       & info [ "load" ] ~docv:"FILE"
           ~doc:"Re-ingest a pair set saved with --save instead of generating a crawl.")

let graph_t =
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Build a web-crawl graph in the compressed dynamic graph and run scan/BFS workloads"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Generate a web-crawl-shaped stream of distinct directed edges (Zipf-skewed \
              in-degrees over a growing frontier), insert it into a dynamic compressed graph \
              (Theorem 3), then measure neighbor scans (successor + predecessor \
              enumeration from out-degree-biased sources), BFS traversals, and delete/re-insert \
              churn, finishing with the structure's measured bits/edge. $(b,--save) persists \
              the bare pair set; $(b,--load) re-ingests one.";
         ])
    Term.(
      const graph_cmd $ graph_nodes_arg $ graph_edges_arg $ load_seed_arg
      $ tau_arg Index_config.default.tau $ graph_queries_arg $ graph_save_arg $ graph_load_arg)

let no_obs_arg =
  Arg.(value & flag & info [ "no-obs" ] ~doc:"Disable the observability layer (overhead demo).")

let stats_t =
  Cmd.v
    (Cmd.info "stats" ~doc:"Scripted churn workload + observability dump")
    Term.(
      const stats_cmd $ ops_arg $ stats_config_t $ no_obs_arg $ shards_arg $ store_arg $ sync_arg
      $ checkpoint_every_arg)

let fuzz_seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Base random seed (stream i uses seed+i).")
let fuzz_ops_arg = Arg.(value & opt int 1000 & info [ "ops" ] ~doc:"Operations per stream.")
let fuzz_streams_arg = Arg.(value & opt int 1 & info [ "streams" ] ~doc:"Number of independent streams.")
(* fuzz selects variant x backend pairs by name ("all" or one), so its
   config term keeps the base shape and reads the names separately; no
   checker reads a retained view *)
let names table = List.map (fun (n, _) -> (n, n)) table

let fuzz_variant_arg =
  Arg.(value & opt (enum ((("all", "all") :: names Index_config.variants) @ [ ("t3", "loglog") ])) "all"
       & info [ "variant" ] ~doc:"all | amortized | loglog (alias: t3) | worst-case")

let fuzz_backend_arg =
  Arg.(value & opt (enum (("all", "all") :: names Index_config.backends)) "all"
       & info [ "backend" ] ~doc:"all | fm | sa | csa")

let fuzz_config_t =
  let base = Dsdg_check.Runner.fuzz_index in
  config_term ~fixed:[ `Retain_epochs ] ~base (Term.const (base.variant, base.backend))

let fuzz_fault_arg =
  let faults = ("none" :: List.map fst Index_config.faults) @ [ "torn-write"; "rel-lost-remove" ] in
  Arg.(value & opt (enum (List.map (fun f -> (f, f)) faults)) "none"
       & info [ "fault" ]
           ~doc:"Plant a deliberate defect: none | skip-top-clean | worker-crash | stale-epoch | torn-write (harness self-tests; worker-crash needs --jobs >= 1, torn-write needs --store DIR).")
let fuzz_profile_arg =
  Arg.(value & opt string "default" & info [ "profile" ] ~doc:"Op-mix profile: default | churny.")
let fuzz_replay_arg =
  Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"TRACE" ~doc:"Replay a saved trace file instead of generating streams (with --store: use its ops for the kill sweep).")
let fuzz_trace_dir_arg =
  Arg.(value & opt (some dir) None & info [ "trace-dir" ] ~doc:"Where to save failing traces (default: system temp dir).")
let fuzz_kill_stride_arg =
  Arg.(value & opt int 0
       & info [ "kill-stride" ]
           ~doc:"Kill-and-recover mode: crash at every N-th op (0 = auto, about 16 crash points across the stream).")

let fuzz_follow_arg =
  Arg.(value & flag
       & info [ "follow" ]
           ~doc:"Leader/follower differential mode (needs --store DIR as scratch): per variant x backend x shard count {1, --shards}, run the op stream through a real leader server with a WAL-shipped replica, verify convergence at quiesce points, then the failover sweep -- kill the leader, promote the follower, check every acked write survives and the promoted store keeps serving writes. --fault skip-top-clean plants a defect in the replica to prove the oracle catches divergence (exits 1).")

let fuzz_rel_arg =
  Arg.(value & flag
       & info [ "rel" ]
           ~doc:"Relation differential mode: generate streams of relation operations \
                 (add/remove/related/successor/predecessor/pair-set snapshots), drive the \
                 dynamic relation with each, and cross-check every answer against the naive \
                 pair-set model after every op. Failing streams shrink to \
                 minimal replayable traces with a rel= hint. --fault rel-lost-remove plants a \
                 defect to prove the oracle has teeth.")

let fuzz_t =
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Differential checking with shrinking and invariant oracles")
    Term.(
      const fuzz_cmd $ fuzz_seed_arg $ fuzz_ops_arg $ fuzz_streams_arg $ fuzz_variant_arg
      $ fuzz_backend_arg $ fuzz_config_t $ fuzz_fault_arg $ fuzz_profile_arg $ fuzz_replay_arg
      $ fuzz_trace_dir_arg $ shards_arg $ store_arg $ sync_arg $ checkpoint_every_arg
      $ fuzz_kill_stride_arg $ fuzz_follow_arg $ fuzz_rel_arg)

let () =
  let doc = "dynamic compressed document collection index (Munro-Nekrich-Vitter, PODS 2015)" in
  let man =
    [
      `S Manpage.s_exit_status;
      `P "$(tname) uses a fixed exit-code scheme across every subcommand:";
      `I ("0", "success.");
      `I
        ( "1",
          "a checker found a real divergence (fuzz, kill-and-recover), a server could not \
           bind, or a load run finished with errors or zero completed operations." );
      `I ("2", "data error: corrupt store files or an unparseable trace.");
      `I ("124", "command-line usage error (bad flag value or impossible combination).");
      `I ("125", "unexpected internal error.");
    ]
  in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "dsdg" ~doc ~man)
          [ index_t; save_t; open_t; serve_t; follow_t; load_t; demo_t; graph_t; stats_t; fuzz_t ]))
