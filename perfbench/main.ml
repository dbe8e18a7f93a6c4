(* Entry point: parse the arguments, run one workload, check it, and
   print the metrics -- human-readable lines first, then one JSON object
   as the last line of standard output. *)

open Util

let usage =
  "main.exe --workload lookup|churn|served|graph --seed N --seconds S --trace 0|1 [--scale PCT]"

(* Every per-layer metric, in BENCHMARK.json order. A traced run reports
   all of them on every workload; a layer the workload does not call
   from the benchmark reads 0, which is the prediction for it there. *)
let per_layer =
  [
    ("core.count_p50_us", "us"); ("core.count_p99_us", "us"); ("core.search_p50_us", "us");
    ("core.search_p99_us", "us"); ("core.extract_p50_us", "us"); ("core.occ_per_search", "count");
    ("core.apply_self_us_per_update", "us"); ("core.symbols_rebuilt_per_update", "count");
    ("core.merges", "count"); ("core.purges", "count"); ("core.forced", "count");
    ("core.top_cleanings", "count"); ("core.dead_fraction", "ratio");
    ("store.wal_busy_us_per_update", "us"); ("store.fsyncs_per_update", "count");
    ("store.checkpoints", "count"); ("store.checkpoint_busy_ms", "ms"); ("store.snapshot_load_ms", "ms");
    ("store.replayed_ops", "count"); ("store.replay_us_per_op", "us");
    ("store.wal_bytes_per_raw_byte", "ratio"); ("shard.gather_busy_us_per_query", "us");
    ("shard.scatter_queries", "count"); ("serve.batch_size_mean", "count");
    ("serve.flush_busy_us_per_batch", "us"); ("serve.request_busy_us_per_op", "us");
    ("serve.wait_us_per_op", "us"); ("loadgen.late_p99_us", "us"); ("loadgen.offered_ops_s", "ops/s");
    ("binrel.add_edge_p50_us", "us"); ("binrel.remove_edge_p50_us", "us"); ("binrel.merges", "count");
    ("binrel.purges", "count"); ("binrel.global_rebuilds", "count");
    ("binrel.successors_p50_us", "us"); ("binrel.predecessors_p50_us", "us");
    ("binrel.bfs_ms_per_source", "ms"); ("binrel.load_ms", "ms"); ("trace.span_coverage", "ratio");
    ("trace.overhead_pct", "%"); ("trace.spans", "count");
  ]

let fill_layers measured =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun x -> x.name = name) measured with
      | Some x ->
        assert (x.unit = unit);
        x
      | None -> m name 0. unit)
    per_layer

(* [served] is not among BENCHMARK.json's workloads (its open-loop tails
   are too unsteady on two shared cores; see README.md). The traced
   [churn] run therefore ends with a short, smaller [served] phase, so
   the serve, shard and loadgen layers are still measured by a listed
   workload. *)
let with_served_probe ~seed ~seconds ~work (r : result) =
  let work = Filename.concat work "served" in
  mkdir_p work;
  let p = Served.run ~strict:false ~seed ~seconds:(min seconds 5) ~scale:25 ~trace:true ~work in
  let keep x = List.exists (fun prefix -> String.starts_with ~prefix x.name) [ "serve."; "shard."; "loadgen." ] in
  {
    r with
    layers = r.layers @ List.filter keep p.layers;
    attempted = r.attempted + p.attempted;
    failed = r.failed + p.failed;
    notes = r.notes @ p.notes;
  }

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10 and trace = ref 0 and scale = ref 100 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 traced run: per-layer metrics instead of end-to-end ones");
      ("--scale", Arg.Set_int scale, "PCT input size in percent of the default (smoke tests)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) || !scale < 1 then begin
    prerr_endline usage;
    exit 2
  end;
  let run =
    match !workload with
    | "lookup" -> Docs.run Docs.lookup_cfg
    | "churn" -> Docs.run Docs.churn_cfg
    | "graph" -> Graph.run
    | "served" -> Served.run ~strict:true
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let trace = !trace = 1 in
  let work = Filename.concat ".perfbench" !workload in
  rm_rf work;
  mkdir_p work;
  let r = run ~seed:!seed ~seconds:!seconds ~scale:!scale ~trace ~work in
  let r = if trace && !workload = "churn" then with_served_probe ~seed:!seed ~seconds:!seconds ~work r else r in
  rm_rf work;
  if trace then begin
    let dir = Filename.concat ".perfbench" "traces" in
    mkdir_p dir;
    let path = Filename.concat dir (Printf.sprintf "%s-seed%d.csv" !workload !seed) in
    Util.Trace.write path;
    Printf.printf "spans written to %s\n" path
  end;
  List.iter print_endline r.notes;
  let metrics = if trace then fill_layers r.layers else r.e2e in
  List.iter (fun x -> Printf.printf "%-34s %14.4f %s\n" x.name x.value x.unit) metrics;
  Printf.printf "%-34s %14.4f %s\n" "failed_frac" (fratio r.failed r.attempted) "ratio";
  print_endline (to_json ~correct:(r.failed = 0) ~attempted:r.attempted ~failed:r.failed metrics)
