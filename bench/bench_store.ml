(* Store benchmark: what durability costs and what recovery buys.

   Three experiments over the same Markov-generated corpus:

   - WAL append overhead per insert: a plain in-memory index vs a
     --store index under each fsync policy (always / every-64 / never).
     The gap between "none" and "never" is the logging overhead proper
     (format + write); the gap between "never" and "always" is fsync.
   - Snapshot economics: checkpoint wall time, snapshot bytes vs raw
     text bytes (snapshots store the logical documents plus deletion
     bit vectors, not the derived structures, so the ratio should sit
     near 1), and cold-open time from the snapshot with an empty WAL.
   - Recovery throughput: crash with a WAL-only store (no snapshot,
     torn final record) and time open_or_recover folding the whole log
     into one bulk build, in WAL records/s -- the number that bounds
     worst-case restart time. *)

open Dsdg_core
module Store = Dsdg_store

let n_docs = 600
let avg_len = 240

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dsdg-bench-store-%d" (Unix.getpid ()))
  in
  Dsdg_check.Runner.reset_dir dir;
  Fun.protect ~finally:(fun () -> Dsdg_check.Runner.reset_dir dir) (fun () -> f dir)

(* Insert the corpus one document at a time, returning (sorted
   per-insert ns, total ns). *)
let timed_inserts insert docs =
  let lat = Array.make (Array.length docs) 0 in
  let t0 = Dsdg_obs.Obs.now_ns () in
  Array.iteri
    (fun i d ->
      let a = Dsdg_obs.Obs.now_ns () in
      ignore (insert d);
      lat.(i) <- Dsdg_obs.Obs.now_ns () - a)
    docs;
  let total = Dsdg_obs.Obs.now_ns () - t0 in
  Array.sort compare lat;
  (lat, total)

let wal_overhead docs =
  let raw_bytes = Array.fold_left (fun a d -> a + String.length d) 0 docs in
  let run_plain () =
    let idx = Dynamic_index.create () in
    let r = timed_inserts (Dynamic_index.insert idx) docs in
    Dynamic_index.close idx;
    r
  in
  let run_store sync =
    with_tmp_dir (fun dir ->
        let config = { Store.Durable.default_config with Store.Durable.sync } in
        let d, _ = Store.Durable.open_ ~config ~dir () in
        let r = timed_inserts (Store.Durable.insert d) docs in
        Store.Durable.close d;
        r)
  in
  let modes =
    [ ("none", None); ("never", Some Store.Wal.Never); ("every-64", Some (Store.Wal.Every 64));
      ("always", Some Store.Wal.Always) ]
  in
  let rows =
    List.map
      (fun (name, sync) ->
        let lat, total = match sync with None -> run_plain () | Some s -> run_store s in
        let mean = float_of_int total /. float_of_int n_docs in
        let p99 = percentile lat 0.99 in
        Bench_util.emit_json_row ~bench:"store/wal-append"
          [ ("sync", Bench_util.S name);
            ("docs", Bench_util.I n_docs);
            ("raw_bytes", Bench_util.I raw_bytes);
            ("mean_ns", Bench_util.F mean);
            ("p99_ns", Bench_util.I p99);
            ("total_ms", Bench_util.F (float_of_int total /. 1e6)) ];
        [ name; Bench_util.ns_str mean; Bench_util.ns_str (float_of_int p99);
          Printf.sprintf "%.1f ms" (float_of_int total /. 1e6) ])
      modes
  in
  Bench_util.print_table
    ~title:(Printf.sprintf "Store: per-insert cost by WAL policy (%d docs, %d KiB)" n_docs
              (raw_bytes / 1024))
    ~header:[ "sync"; "mean/insert"; "p99"; "total" ]
    rows

let snapshot_economics docs =
  let raw_bytes = Array.fold_left (fun a d -> a + String.length d) 0 docs in
  with_tmp_dir (fun dir ->
      let config = { Store.Durable.default_config with Store.Durable.sync = Store.Wal.Never } in
      let d, _ = Store.Durable.open_ ~config ~dir () in
      Array.iter (fun doc -> ignore (Store.Durable.insert d doc)) docs;
      let _, save_ns = Bench_util.time_ns (fun () -> Store.Durable.checkpoint d) in
      Store.Durable.close d;
      let snap_bytes =
        match Store.Snapshot.list ~dir with
        | (path, _) :: _ -> (Unix.stat path).Unix.st_size
        | [] -> 0
      in
      let (d2, info), load_ns = Bench_util.time_ns (fun () -> Store.Durable.open_ ~config ~dir ()) in
      assert (info.Store.Recovery.ri_replayed = 0);
      let symbols = Dynamic_index.total_symbols (Store.Durable.index d2) in
      Store.Durable.close d2;
      let ratio = float_of_int snap_bytes /. float_of_int raw_bytes in
      Bench_util.emit_json_row ~bench:"store/snapshot"
        [ ("docs", Bench_util.I n_docs);
          ("raw_bytes", Bench_util.I raw_bytes);
          ("snapshot_bytes", Bench_util.I snap_bytes);
          ("bytes_ratio", Bench_util.F ratio);
          ("total_symbols", Bench_util.I symbols);
          ("save_ms", Bench_util.F (save_ns /. 1e6));
          ("load_ms", Bench_util.F (load_ns /. 1e6)) ];
      Bench_util.print_table ~title:"Store: snapshot size and cold open"
        ~header:[ "raw text"; "snapshot"; "ratio"; "save"; "load (0 replay)" ]
        [ [ Printf.sprintf "%d B" raw_bytes; Printf.sprintf "%d B" snap_bytes;
            Printf.sprintf "%.2fx" ratio; Bench_util.ns_str save_ns; Bench_util.ns_str load_ns ] ])

let recovery_throughput docs =
  with_tmp_dir (fun dir ->
      let config = { Store.Durable.default_config with Store.Durable.sync = Store.Wal.Never } in
      let d, _ = Store.Durable.open_ ~config ~dir () in
      Array.iter (fun doc -> ignore (Store.Durable.insert d doc)) docs;
      (* crash: no checkpoint ever ran, so recovery must fold the
         whole stream, and the final record is torn *)
      Store.Durable.kill d ~torn:true;
      let (d2, info), rec_ns = Bench_util.time_ns (fun () -> Store.Durable.open_ ~config ~dir ()) in
      let replayed = info.Store.Recovery.ri_replayed in
      let truncated = info.Store.Recovery.ri_truncated in
      Store.Durable.close d2;
      let ops_per_s = float_of_int replayed /. (rec_ns /. 1e9) in
      Bench_util.emit_json_row ~bench:"store/recovery"
        [ ("docs", Bench_util.I n_docs);
          ("replayed", Bench_util.I replayed);
          ("torn_truncated", Bench_util.I (if truncated then 1 else 0));
          ("recover_ms", Bench_util.F (rec_ns /. 1e6));
          ("replay_ops_per_s", Bench_util.F ops_per_s) ];
      Bench_util.print_table ~title:"Store: crash recovery, WAL-only (torn final record)"
        ~header:[ "replayed"; "torn dropped"; "recover"; "replay ops/s" ]
        [ [ string_of_int replayed; (if truncated then "yes" else "NO");
            Bench_util.ns_str rec_ns; Printf.sprintf "%.0f" ops_per_s ] ])

let run () =
  let open Dsdg_workload in
  let st = Text_gen.rng 31 in
  let docs = Text_gen.corpus st ~count:n_docs ~avg_len ~kind:(`Markov (8, 0.6)) in
  wal_overhead docs;
  snapshot_economics docs;
  recovery_throughput docs
