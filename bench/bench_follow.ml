(* Replication-plane benchmarks.

   follow/lag: a real leader (server over a Unix socket) with a real
   WAL-tailing follower, driven at a paced write rate; reports the
   replica's serial lag (mean and max of samples taken during the
   drive) and the time the follower needs to drain to the leader's
   watermark once the writers stop -- lag vs write rate is the
   headline replication trade-off.

   follow/pinned_backup: the cost of a consistent pinned backup
   (epoch-vector pin + serialization to a fresh store directory) as
   the index grows, against the live writer it does not stop. *)

module Durable = Dsdg_store.Durable
module Server = Dsdg_serve.Server
module Client = Dsdg_serve.Client
module Follower = Dsdg_serve.Follower
module SI = Dsdg_shard.Sharded_index
module Text_gen = Dsdg_workload.Text_gen

let tmp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

let rm_rf = Dsdg_check.Runner.reset_dir

let corpus st ~count = Text_gen.corpus st ~count ~avg_len:200 ~kind:(`Markov (8, 0.6))

(* Drive [ops] inserts through the wire at [rate] writes/s (0 =
   unthrottled), sampling follower lag after every write. *)
let lag_cell ~rate ~ops =
  let dir = tmp_dir "dsdg-bench-follow" in
  let leader_dir = Filename.concat dir "leader" in
  let replica_dir = Filename.concat dir "replica" in
  let sock = Filename.concat dir "leader.sock" in
  Unix.mkdir dir 0o755;
  let store, _ = SI.open_store ~shards:1 ~dir:leader_dir () in
  let srv = Server.start (SI.subject store) (`Unix sock) in
  let fol = Follower.start ~leader:(`Unix sock) ~dir:replica_dir () in
  let c = Client.connect (`Unix sock) in
  let st = Text_gen.rng (4242 + rate) in
  let docs = corpus st ~count:ops in
  let period = if rate = 0 then 0. else 1. /. float_of_int rate in
  let lag_sum = ref 0 and lag_max = ref 0 and samples = ref 0 in
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun i doc ->
      ignore (Client.insert c doc);
      let l = (Follower.lag fol).Follower.lg_serials in
      lag_sum := !lag_sum + l;
      lag_max := max !lag_max l;
      incr samples;
      if period > 0. then begin
        (* pace against the wall clock, not per-op sleeps, so slow
           writes borrow from the budget instead of stacking delay *)
        let target = t0 +. (float_of_int (i + 1) *. period) in
        let now = Unix.gettimeofday () in
        if target > now then Thread.delay (target -. now)
      end)
    docs;
  let drive_s = Unix.gettimeofday () -. t0 in
  (* catch-up: how long until the replica has applied everything *)
  let t1 = Unix.gettimeofday () in
  let target = (SI.wal_serials store).(0) in
  while (Follower.watermark fol).(0) < target do
    Thread.delay 0.001
  done;
  let catchup_ms = (Unix.gettimeofday () -. t1) *. 1000. in
  let applied = (Follower.lag fol).Follower.lg_applied in
  Client.close c;
  Follower.stop fol;
  Server.stop srv;
  rm_rf dir;
  let mean_lag = if !samples = 0 then 0. else float_of_int !lag_sum /. float_of_int !samples in
  (float_of_int ops /. drive_s, mean_lag, !lag_max, catchup_ms, applied)

(* Pin + backup a K=2 sharded store of [count] documents while its
   writer keeps inserting; measure the backup wall time and size. *)
let backup_cell ~count =
  let dir = tmp_dir "dsdg-bench-pin" in
  let store_dir = Filename.concat dir "store" in
  let dest = Filename.concat dir "backup" in
  Unix.mkdir dir 0o755;
  let sh, _ = SI.open_store ~shards:2 ~dir:store_dir () in
  let st = Text_gen.rng (9 + count) in
  Array.iter (fun d -> ignore (SI.insert sh d)) (corpus st ~count);
  let symbols = SI.total_symbols sh in
  let t0 = Unix.gettimeofday () in
  let pin = SI.pin sh in
  let pin_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (* the writer does not stop for the backup *)
  let writer_done = ref false in
  let writer =
    Thread.create
      (fun () ->
        let st' = Text_gen.rng (10 + count) in
        Array.iter (fun d -> if not !writer_done then ignore (SI.insert sh d))
          (corpus st' ~count:64))
      ()
  in
  let t1 = Unix.gettimeofday () in
  ignore (SI.backup sh pin ~dest);
  let backup_ms = (Unix.gettimeofday () -. t1) *. 1000. in
  writer_done := true;
  Thread.join writer;
  SI.unpin sh pin;
  let bytes =
    let rec walk p =
      if Sys.is_directory p then
        Array.fold_left (fun a e -> a + walk (Filename.concat p e)) 0 (Sys.readdir p)
      else (Unix.stat p).Unix.st_size
    in
    walk dest
  in
  SI.close sh;
  rm_rf dir;
  (symbols, pin_ms, backup_ms, bytes)

let run () =
  let rows = ref [] in
  let ops = 600 in
  List.iter
    (fun rate ->
      let achieved, mean_lag, max_lag, catchup_ms, applied = lag_cell ~rate ~ops in
      Bench_util.emit_json_row ~bench:"follow/lag"
        [ ("target_rate", Bench_util.I rate);
          ("ops", Bench_util.I ops);
          ("achieved_rate", Bench_util.F achieved);
          ("mean_lag_serials", Bench_util.F mean_lag);
          ("max_lag_serials", Bench_util.I max_lag);
          ("catchup_ms", Bench_util.F catchup_ms);
          ("replayed", Bench_util.I applied) ];
      rows :=
        [ (if rate = 0 then "max" else string_of_int rate);
          Printf.sprintf "%.0f" achieved;
          Printf.sprintf "%.1f" mean_lag;
          string_of_int max_lag;
          Printf.sprintf "%.1f" catchup_ms ]
        :: !rows)
    [ 100; 400; 0 ];
  Bench_util.print_table ~title:"follow: replica lag vs leader write rate (Unix socket, sync=always)"
    ~header:[ "rate (w/s)"; "achieved"; "mean lag"; "max lag"; "catch-up ms" ]
    (List.rev !rows);
  let rows = ref [] in
  List.iter
    (fun count ->
      let symbols, pin_ms, backup_ms, bytes = backup_cell ~count in
      Bench_util.emit_json_row ~bench:"follow/pinned_backup"
        [ ("docs", Bench_util.I count);
          ("symbols", Bench_util.I symbols);
          ("pin_ms", Bench_util.F pin_ms);
          ("backup_ms", Bench_util.F backup_ms);
          ("backup_bytes", Bench_util.I bytes) ];
      rows :=
        [ string_of_int count;
          string_of_int symbols;
          Printf.sprintf "%.2f" pin_ms;
          Printf.sprintf "%.1f" backup_ms;
          string_of_int bytes ]
        :: !rows)
    [ 100; 400; 1600 ];
  Bench_util.print_table ~title:"follow: pinned-backup cost vs index size (K=2, live writer)"
    ~header:[ "docs"; "symbols"; "pin ms"; "backup ms"; "bytes" ]
    (List.rev !rows)
