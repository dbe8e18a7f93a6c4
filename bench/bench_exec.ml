(* Executor benchmark: per-insert latency of the worst-case variant over
   a ~1M-symbol mixed workload, Sync (jobs = 0) vs pooled (jobs = 2).

   The workload interleaves each insert with a handful of count queries
   -- the regime Transformation 2's background construction is for: a
   collection that is queried while it grows.  In Sync mode every insert
   must also step the pending rebuild jobs (work_factor * |T| budget
   each), so inserts issued while jobs are active carry multi-ms
   construction slices and dominate p99.  Pooled inserts only pay
   submission, polling and any forced completion of a job the workers
   have not finished by its install point; the rest of the construction
   runs on worker domains, concurrently with the inserts and the
   queries.  With fewer cores than domains the workers share the
   processor with the writer, so the [forced] count in the row shows how
   often they fall behind.  We record exact per-insert wall times -- no
   sampling -- and report p50/p99/max plus end-to-end throughput. *)

open Dsdg_core

let n_docs = 5000
let doc_len = 200 (* n_docs * (doc_len + separator) ~ 1M symbols *)
let queries_per_insert = 4

let make_docs () =
  let st = Random.State.make [| 0xbe5c; 42 |] in
  Array.init n_docs (fun _ -> String.init doc_len (fun _ -> Char.chr (97 + Random.State.int st 4)))

(* Deterministic 4-char patterns over the same alphabet. *)
let make_patterns () =
  let st = Random.State.make [| 0xfaced; 7 |] in
  Array.init 64 (fun _ -> String.init 4 (fun _ -> Char.chr (97 + Random.State.int st 4)))

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* One full insert sweep; returns (sorted per-insert ns, total wall ns,
   symbols indexed). *)
let run_mode ~jobs docs =
  let idx =
    Dynamic_index.create
      ~index:{ Index_config.default with variant = Worst_case; backend = Plain_sa; jobs }
      ()
  in
  let patterns = make_patterns () in
  let lat = Array.make (Array.length docs) 0 in
  let sink = ref 0 in
  let t0 = Dsdg_obs.Obs.now_ns () in
  Array.iteri
    (fun i d ->
      let a = Dsdg_obs.Obs.now_ns () in
      ignore (Dynamic_index.insert idx d);
      lat.(i) <- Dsdg_obs.Obs.now_ns () - a;
      for q = 0 to queries_per_insert - 1 do
        sink := !sink + Dynamic_index.count idx patterns.(((i * queries_per_insert) + q) mod 64)
      done)
    docs;
  ignore !sink;
  (* outstanding background work lands before the clock stops, so the
     two modes account for the same total construction *)
  Dynamic_index.drain idx;
  let total = Dsdg_obs.Obs.now_ns () - t0 in
  let symbols = Dynamic_index.total_symbols idx in
  let scope = Dynamic_index.obs_scope idx in
  Dynamic_index.close idx;
  if Sys.getenv_opt "DSDG_EXEC_PROBE" <> None then begin
    let indexed = Array.mapi (fun i ns -> (ns, i)) lat in
    Array.sort (fun a b -> compare b a) indexed;
    Printf.printf "  [probe jobs=%d] slowest inserts (ns, index):\n" jobs;
    Array.iteri (fun k (ns, i) -> if k < 40 then Printf.printf "    %9d @%d\n" ns i) indexed
  end;
  Array.sort compare lat;
  (lat, total, symbols, scope)

(* Minor heap for this experiment (words).  Under the 256k-word default,
   construction allocates so fast that stop-the-world minor collections
   fire every few updates and dominate the p99 of both modes, burying
   the scheduling effect this benchmark measures.  Both modes run under
   the identical enlarged setting; it is recorded in the JSON row. *)
let minor_heap_words = 2 * 1024 * 1024

let run () =
  Gc.set { (Gc.get ()) with minor_heap_size = minor_heap_words };
  let docs = make_docs () in
  let modes = [ ("sync", 0); ("pooled", 2) ] in
  let results =
    List.map
      (fun (name, jobs) ->
        let lat, total, symbols, scope = run_mode ~jobs docs in
        let p50 = percentile lat 0.50 and p99 = percentile lat 0.99 in
        let mx = lat.(Array.length lat - 1) in
        Bench_util.emit_json_row ~scope ~bench:"exec/insert-latency"
          [ ("mode", Bench_util.S name);
            ("jobs", Bench_util.I jobs);
            ("docs", Bench_util.I n_docs);
            ("minor_heap_words", Bench_util.I minor_heap_words);
            ("total_symbols", Bench_util.I symbols);
            ("p50_ns", Bench_util.I p50);
            ("p99_ns", Bench_util.I p99);
            ("max_ns", Bench_util.I mx);
            ("total_ms", Bench_util.F (float_of_int total /. 1e6)) ];
        (name, jobs, p50, p99, mx, total))
      modes
  in
  Bench_util.print_table ~title:"Executor: per-insert latency, 1M-symbol stream (worst-case/sa)"
    ~header:[ "mode"; "jobs"; "p50"; "p99"; "max"; "total" ]
    (List.map
       (fun (name, jobs, p50, p99, mx, total) ->
         [ name; string_of_int jobs; Bench_util.ns_str (float_of_int p50);
           Bench_util.ns_str (float_of_int p99); Bench_util.ns_str (float_of_int mx);
           Printf.sprintf "%.1f ms" (float_of_int total /. 1e6) ])
       results);
  match results with
  | [ (_, _, _, sync_p99, _, _); (_, _, _, pooled_p99, _, _) ] ->
    Printf.printf "  p99 insert latency: pooled %s vs sync %s -- %s\n"
      (Bench_util.ns_str (float_of_int pooled_p99))
      (Bench_util.ns_str (float_of_int sync_p99))
      (if pooled_p99 < sync_p99 then "pooled wins" else "POOLED DID NOT WIN")
  | _ -> ()
