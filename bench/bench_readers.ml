(* Reader-pool benchmark: aggregate query throughput of K reader domains
   served from the epoch-published read plane, while a single writer
   keeps applying a mixed insert/delete stream.

   Each reader domain loops fetching the latest published view (one
   Atomic.get) and running a count query against it -- the wait-free
   path the read-plane split exists for.  The writer runs on the main
   domain, interleaving its own occasional queries through
   [Dynamic_index.query], which routes them over the index's reader
   pool when K >= 1, so the Executor-backed pool path is exercised
   under the same load.  We report aggregate reader queries/sec per K,
   the writer's per-update p50/p99 (updates must not degrade when
   readers are added -- they never touch the write plane), and the
   final epoch (= number of successful updates, a determinism check).

   On a single-core host the K > 1 rows cannot show real speedup --
   the domains time-share one processor -- but the harness is the same
   one a multi-core host runs, and the JSON rows record nproc so
   downstream plotting can annotate that. *)

open Dsdg_core

let preload = 3000
let doc_len = 200 (* ~600k preloaded symbols, ~740k live at the end *)
let updates = 800
let writer_queries_per_update = 2
let reader_counts = [ 0; 1; 2; 4; 8 ]

let make_docs n seed =
  let st = Random.State.make [| 0x5eed; seed |] in
  Array.init n (fun _ -> String.init doc_len (fun _ -> Char.chr (97 + Random.State.int st 4)))

let make_patterns () =
  let st = Random.State.make [| 0xfaced; 7 |] in
  Array.init 64 (fun _ -> String.init 4 (fun _ -> Char.chr (97 + Random.State.int st 4)))

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* One reader domain: hammer the latest view until [stop]; returns the
   query count and whether the observed epochs were monotone. *)
let reader_loop idx patterns stop () =
  let queries = ref 0 and last_epoch = ref (-1) and monotone = ref true in
  let sink = ref 0 in
  while not (Atomic.get stop) do
    let v = Dynamic_index.view idx in
    let e = Dynamic_index.view_epoch v in
    if e < !last_epoch then monotone := false;
    last_epoch := e;
    sink := !sink + Dynamic_index.view_count v patterns.(!queries mod 64);
    incr queries
  done;
  ignore !sink;
  (!queries, !monotone)

(* One full run at pool size K: preload, spawn K readers, drive the
   mixed update stream, join.  Returns (qps, update latencies sorted,
   total reader queries, final epoch, scope). *)
let run_mode ~k docs upd_docs =
  let idx =
    Dynamic_index.create
      ~index:{ Index_config.default with variant = Worst_case; backend = Plain_sa; readers = k }
      ()
  in
  let patterns = make_patterns () in
  Array.iter (fun d -> ignore (Dynamic_index.insert idx d)) docs;
  let ids = Array.make (preload + updates) 0 in
  let n_live = ref 0 in
  (* preload ids are 1..preload in insertion order *)
  for i = 1 to preload do
    ids.(!n_live) <- i;
    incr n_live
  done;
  let stop = Atomic.make false in
  let readers = List.init k (fun _ -> Domain.spawn (reader_loop idx patterns stop)) in
  let st = Random.State.make [| 0xdead; k |] in
  let lat = Array.make updates 0 in
  let sink = ref 0 in
  let t0 = Dsdg_obs.Obs.now_ns () in
  for i = 0 to updates - 1 do
    let a = Dsdg_obs.Obs.now_ns () in
    if i mod 4 = 3 && !n_live > 0 then begin
      let j = Random.State.int st !n_live in
      let id = ids.(j) in
      ids.(j) <- ids.(!n_live - 1);
      decr n_live;
      ignore (Dynamic_index.delete idx id)
    end
    else begin
      let id = Dynamic_index.insert idx upd_docs.(i) in
      ids.(!n_live) <- id;
      incr n_live
    end;
    lat.(i) <- Dsdg_obs.Obs.now_ns () - a;
    (* the writer's own queries ride the reader pool when K >= 1 *)
    for q = 0 to writer_queries_per_update - 1 do
      sink :=
        !sink
        + Dynamic_index.query idx (fun v ->
              Dynamic_index.view_count v patterns.(((i * writer_queries_per_update) + q) mod 64))
    done
  done;
  ignore !sink;
  let wall = Dsdg_obs.Obs.now_ns () - t0 in
  Atomic.set stop true;
  let joined = List.map Domain.join readers in
  let queries = List.fold_left (fun acc (q, _) -> acc + q) 0 joined in
  List.iteri
    (fun i (_, monotone) ->
      if not monotone then Printf.printf "  READER %d SAW A NON-MONOTONE EPOCH (bug)\n" i)
    joined;
  let epoch = Dynamic_index.view_epoch (Dynamic_index.view idx) in
  let scope = Dynamic_index.obs_scope idx in
  Dynamic_index.close idx;
  Array.sort compare lat;
  let qps = float_of_int queries /. (float_of_int wall /. 1e9) in
  (qps, lat, queries, epoch, wall, scope)

(* Same minor-heap setting (and rationale) as bench_exec. *)
let minor_heap_words = 2 * 1024 * 1024

let run () =
  Gc.set { (Gc.get ()) with minor_heap_size = minor_heap_words };
  let docs = make_docs preload 42 in
  let upd_docs = make_docs updates 43 in
  let nproc = Domain.recommended_domain_count () in
  let results =
    List.map
      (fun k ->
        let qps, lat, queries, epoch, wall, scope = run_mode ~k docs upd_docs in
        let p50 = percentile lat 0.50 and p99 = percentile lat 0.99 in
        Bench_util.emit_json_row ~scope ~bench:"readers/query-throughput"
          [ ("readers", Bench_util.I k);
            ("nproc", Bench_util.I nproc);
            ("preload_docs", Bench_util.I preload);
            ("updates", Bench_util.I updates);
            ("minor_heap_words", Bench_util.I minor_heap_words);
            ("reader_queries", Bench_util.I queries);
            ("qps", Bench_util.F qps);
            ("update_p50_ns", Bench_util.I p50);
            ("update_p99_ns", Bench_util.I p99);
            ("final_epoch", Bench_util.I epoch);
            ("wall_ms", Bench_util.F (float_of_int wall /. 1e6)) ];
        (k, qps, queries, p50, p99, epoch))
      reader_counts
  in
  let base_qps =
    match List.find_opt (fun (k, _, _, _, _, _) -> k = 1) results with
    | Some (_, q, _, _, _, _) when q > 0. -> q
    | _ -> 0.
  in
  Bench_util.print_table
    ~title:
      (Printf.sprintf "Read plane: reader-domain query throughput, mixed stream (nproc=%d)" nproc)
    ~header:[ "readers"; "queries"; "qps"; "vs 1"; "upd p50"; "upd p99"; "epoch" ]
    (List.map
       (fun (k, qps, queries, p50, p99, epoch) ->
         [ string_of_int k;
           string_of_int queries;
           (if k = 0 then "-" else Printf.sprintf "%.0f" qps);
           (if k <= 1 || base_qps = 0. then "-" else Printf.sprintf "%.2fx" (qps /. base_qps));
           Bench_util.ns_str (float_of_int p50);
           Bench_util.ns_str (float_of_int p99);
           string_of_int epoch ])
       results);
  if nproc <= 1 then
    Printf.printf
      "  single processor: reader rows time-share one core, so qps cannot scale with K here\n"
