(* Service-plane throughput: qps and exact latency percentiles vs
   client count and group-commit batch size, over a Unix socket with
   --sync always (the durability setting where fsync dominates and
   group commit earns its keep). Each cell also reports the WAL fsync
   count, so the amortization is visible directly: fsyncs/write drops
   from ~1 at max_batch=1 toward 1/batch as concurrency rises. *)

module Durable = Dsdg_store.Durable
module Server = Dsdg_serve.Server
module Load_gen = Dsdg_serve.Load_gen
module Obs = Dsdg_obs.Obs

let tmp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

let store_fsyncs () =
  match List.assoc_opt "wal_fsyncs" (Obs.counters (Obs.scope "store")) with
  | Some n -> n
  | None -> 0

(* write-heavy mix: group commit only amortizes the mutation path *)
let mix = { Load_gen.insert = 40; delete = 10; search = 30; count = 10; extract = 10 }

let cell ~clients ~max_batch ~ops =
  let dir = tmp_dir "dsdg-bench-serve" in
  let sock = dir ^ ".sock" in
  let store, _info =
    Dsdg_shard.Sharded_index.open_store
      ~config:{ Durable.default_config with sync = Dsdg_store.Wal.Always } ~shards:1 ~dir ()
  in
  let config = { Server.default_config with max_batch } in
  let srv = Server.start ~config (Dsdg_shard.Sharded_index.subject store) (`Unix sock) in
  let f0 = store_fsyncs () in
  let r = Load_gen.run ~mix (`Unix sock) ~clients ~ops ~seed:(1000 + clients + max_batch) in
  let fsyncs = store_fsyncs () - f0 in
  Server.stop srv;
  Dsdg_check.Runner.reset_dir dir;
  (r, fsyncs)

let run () =
  let ops = 1500 in
  let rows = ref [] in
  List.iter
    (fun max_batch ->
      List.iter
        (fun clients ->
          let r, fsyncs = cell ~clients ~max_batch ~ops in
          let fsyncs_per_write =
            if r.Load_gen.writes = 0 then 0. else float_of_int fsyncs /. float_of_int r.Load_gen.writes
          in
          Bench_util.emit_json_row ~bench:"serve/group_commit"
            [
              ("clients", Bench_util.I clients);
              ("max_batch", Bench_util.I max_batch);
              ("ops", Bench_util.I r.Load_gen.ops);
              ("writes", Bench_util.I r.Load_gen.writes);
              ("errors", Bench_util.I r.Load_gen.errors);
              ("qps", Bench_util.F r.Load_gen.qps);
              ("p50_us", Bench_util.F r.Load_gen.p50_us);
              ("p99_us", Bench_util.F r.Load_gen.p99_us);
              ("p999_us", Bench_util.F r.Load_gen.p999_us);
              ("write_p99_us", Bench_util.F r.Load_gen.write_p99_us);
              ("wal_fsyncs", Bench_util.I fsyncs);
              ("fsyncs_per_write", Bench_util.F fsyncs_per_write);
            ];
          rows :=
            [
              string_of_int clients;
              string_of_int max_batch;
              Printf.sprintf "%.0f" r.Load_gen.qps;
              Printf.sprintf "%.0f" r.Load_gen.p50_us;
              Printf.sprintf "%.0f" r.Load_gen.p99_us;
              Printf.sprintf "%.0f" r.Load_gen.p999_us;
              string_of_int fsyncs;
              Printf.sprintf "%.3f" fsyncs_per_write;
            ]
            :: !rows)
        [ 1; 4; 8 ])
    [ 1; 256 ];
  Bench_util.print_table
    ~title:
      (Printf.sprintf
         "service plane: group commit under --sync always (%d ops, write-heavy mix, unix socket)"
         ops)
    ~header:[ "clients"; "max_batch"; "qps"; "p50 us"; "p99 us"; "p999 us"; "wal fsyncs"; "fsyncs/write" ]
    (List.rev !rows)
