(* Shard benchmark: what hash-partitioning the collection across K
   independent index shards buys (and costs) on the same ~1M-symbol
   stream.

   Three numbers per K in {1, 2, 4, 8}:

   - scatter-gather query throughput: count queries fanned across the
     K shard views and summed, from one driver thread.  Per-shard
     structures are ~1/K the size, so individual probes get cheaper as
     K grows even single-threaded; the gather loop adds a fixed merge
     cost.
   - update p50/p99: per-insert/delete latency through the sharded
     write path (route, mapping publish, shard write).  Updates touch
     exactly one shard, so the per-op cost should track the 1/K-sized
     shard, not the collection.
   - recovery: build a durable store from the same stream via batched
     group commits (sync=never), crash it with a torn final record,
     and time [open_store] replaying all K shard WALs -- once
     sequentially (recovery_jobs=0) and once on a parallel executor
     pool (recovery_jobs=min K 4), the restart-time win sharding
     exists for.

   On a single-core host the parallel-recovery rows time-share one
   processor; the JSON rows record nproc so plots can annotate that. *)

open Dsdg_shard
module Store = Dsdg_store

let preload = 5000
let doc_len = 200 (* preload * doc_len = 1M symbols *)
let updates = 600
let queries = 2000
let batch = 256
let shard_counts = [ 1; 2; 4; 8 ]

let make_docs n seed =
  let st = Random.State.make [| 0x5eed; seed |] in
  Array.init n (fun _ -> String.init doc_len (fun _ -> Char.chr (97 + Random.State.int st 4)))

let make_patterns () =
  let st = Random.State.make [| 0xfaced; 11 |] in
  Array.init 64 (fun _ -> String.init 4 (fun _ -> Char.chr (97 + Random.State.int st 4)))

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dsdg-bench-shard-%d" (Unix.getpid ()))
  in
  Dsdg_check.Runner.reset_dir dir;
  Fun.protect ~finally:(fun () -> Dsdg_check.Runner.reset_dir dir) (fun () -> f dir)

(* In-memory phase: preload the stream, then measure update latency and
   scatter-gather query throughput at shard count [k]. *)
let run_mem ~k docs upd_docs =
  let sh =
    Sharded_index.create
      ~index:{ Dsdg_core.Index_config.default with variant = Worst_case; backend = Plain_sa }
      ~shards:k ()
  in
  let patterns = make_patterns () in
  Array.iter (fun d -> ignore (Sharded_index.insert sh d)) docs;
  let st = Random.State.make [| 0xdead; k |] in
  let lat = Array.make updates 0 in
  let live = Array.init preload (fun i -> i) in
  let n_live = ref preload in
  for i = 0 to updates - 1 do
    let a = Dsdg_obs.Obs.now_ns () in
    if i mod 4 = 3 && !n_live > 0 then begin
      let j = Random.State.int st !n_live in
      let id = live.(j) in
      live.(j) <- live.(!n_live - 1);
      decr n_live;
      ignore (Sharded_index.delete sh id)
    end
    else ignore (Sharded_index.insert sh upd_docs.(i mod Array.length upd_docs));
    lat.(i) <- Dsdg_obs.Obs.now_ns () - a
  done;
  let sink = ref 0 in
  let t0 = Dsdg_obs.Obs.now_ns () in
  for q = 0 to queries - 1 do
    sink := !sink + Sharded_index.count sh patterns.(q mod 64)
  done;
  let q_wall = Dsdg_obs.Obs.now_ns () - t0 in
  ignore !sink;
  let symbols = Sharded_index.total_symbols sh in
  Sharded_index.close sh;
  Array.sort compare lat;
  let qps = float_of_int queries /. (float_of_int q_wall /. 1e9) in
  (qps, lat, symbols)

(* Store phase: stream the corpus in through batched group commits,
   crash torn, and time recovery of the K shard stores -- sequential
   and parallel. *)
let run_store ~k docs =
  let config =
    { Store.Durable.default_config with Store.Durable.sync = Store.Wal.Never }
  in
  let recover ~recovery_jobs dir =
    let (sh, infos), ns =
      Bench_util.time_ns (fun () ->
          Sharded_index.open_store ~config ~recovery_jobs ~shards:k ~dir ())
    in
    let replayed = Array.fold_left (fun a i -> a + i.Store.Recovery.ri_replayed) 0 infos in
    (sh, replayed, ns)
  in
  let build dir =
    let sh, _ = Sharded_index.open_store ~config ~shards:k ~dir () in
    let n = Array.length docs in
    let i = ref 0 in
    while !i < n do
      let stop = min n (!i + batch) in
      let ops = ref [] in
      for j = stop - 1 downto !i do
        ops := Dsdg_check.Trace.Insert docs.(j) :: !ops
      done;
      ignore (Sharded_index.apply_batch sh !ops);
      i := stop
    done;
    Sharded_index.kill sh ~torn:true
  in
  with_tmp_dir (fun dir ->
      build dir;
      let sh, replayed_seq, seq_ns = recover ~recovery_jobs:0 dir in
      Sharded_index.kill sh ~torn:false;
      let sh, replayed_par, par_ns = recover ~recovery_jobs:(min k 4) dir in
      Sharded_index.close sh;
      assert (replayed_seq = replayed_par);
      (replayed_seq, seq_ns, par_ns))

let run () =
  let docs = make_docs preload 42 in
  let upd_docs = make_docs updates 43 in
  let nproc = Domain.recommended_domain_count () in
  let results =
    List.map
      (fun k ->
        let qps, lat, symbols = run_mem ~k docs upd_docs in
        let p50 = percentile lat 0.50 and p99 = percentile lat 0.99 in
        let replayed, seq_ns, par_ns = run_store ~k docs in
        Bench_util.emit_json_row ~bench:"shard/scatter-gather"
          [ ("shards", Bench_util.I k);
            ("nproc", Bench_util.I nproc);
            ("preload_docs", Bench_util.I preload);
            ("total_symbols", Bench_util.I symbols);
            ("updates", Bench_util.I updates);
            ("queries", Bench_util.I queries);
            ("qps", Bench_util.F qps);
            ("update_p50_ns", Bench_util.I p50);
            ("update_p99_ns", Bench_util.I p99);
            ("wal_replayed", Bench_util.I replayed);
            ("recover_seq_ms", Bench_util.F (seq_ns /. 1e6));
            ("recover_par_ms", Bench_util.F (par_ns /. 1e6)) ];
        (k, qps, p50, p99, seq_ns, par_ns))
      shard_counts
  in
  Bench_util.print_table
    ~title:
      (Printf.sprintf
         "Sharded scale-out: K-way partition of a %dk-symbol stream (nproc=%d)"
         (preload * doc_len / 1000) nproc)
    ~header:[ "K"; "qps"; "upd p50"; "upd p99"; "recover seq"; "recover par" ]
    (List.map
       (fun (k, qps, p50, p99, seq_ns, par_ns) ->
         [ string_of_int k;
           Printf.sprintf "%.0f" qps;
           Bench_util.ns_str (float_of_int p50);
           Bench_util.ns_str (float_of_int p99);
           Bench_util.ns_str seq_ns;
           Bench_util.ns_str par_ns ])
       results);
  if nproc <= 1 then
    Printf.printf
      "  single processor: parallel-recovery rows time-share one core, no speedup possible here\n"
