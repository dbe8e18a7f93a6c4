(* The two in-process document workloads, [lookup] and [churn]: one
   client driving a single Durable store (Transformation 2 over the
   FM-index, WAL fsync policy Always, jobs = readers = 0) in a closed
   loop. Every input is generated from the seed before any clock runs;
   the program only ever sees the generated documents, patterns and
   ids. *)

open Util
module Di = Dsdg_core.Dynamic_index
module Durable = Dsdg_store.Durable
module Recovery = Dsdg_store.Recovery
module Snapshot = Dsdg_store.Snapshot
module Trace_op = Dsdg_check.Trace
module Model = Dsdg_check.Model
module Text_gen = Dsdg_workload.Text_gen

type cfg = {
  name : string;
  preload : int;  (** documents bulk-loaded in setup *)
  (* op weights of the timed mix *)
  w_count : int;
  w_search : int;
  w_extract : int;
  w_write : int;
  batch : int;  (** writes per group commit, half inserts and half deletes *)
  checkpoint_every : int;  (** Durable config; 0 = explicit only *)
  tail : int;  (** writes logged after the final checkpoint, replayed by recovery *)
  max_rate : int;  (** ops/s the stream is sized for (generous) *)
}

let lookup_cfg =
  {
    name = "lookup";
    preload = 1800;
    w_count = 36;
    w_search = 30;
    w_extract = 24;
    w_write = 10;
    batch = 2;
    checkpoint_every = 0;
    tail = 20;
    max_rate = 15_000;
  }

let churn_cfg =
  {
    name = "churn";
    preload = 800;
    w_count = 15;
    w_search = 15;
    w_extract = 10;
    w_write = 60;
    batch = 4;
    checkpoint_every = 200;
    tail = 1600;
    max_rate = 6_000;
  }

let setup_reps = 3
let recover_reps = 3

(* ---------- generated inputs ---------- *)

(* Every document has the same length, so every seed builds collections
   of the same size and the dynamization schedule (which is driven by
   symbol counts) runs through the same phases. *)
let doc_len = 100
let gen_doc st = Text_gen.markov st ~sigma:20 ~len:doc_len ~skew:0.4

type op =
  | Count of string
  | Search of string
  | Extract of int * int * int
  | Writes of Trace_op.op array  (** one group commit *)

type inputs = {
  docs : string array;  (** preload, ids 0 .. preload-1 *)
  ops : op array;  (** timed stream *)
  tail_ops : Trace_op.op array array;  (** post-checkpoint batches *)
}

(* Occurrences of [p] in [d], overlapping ones included. *)
let occurrences_in d p =
  let n = String.length d and k = String.length p in
  let c = ref 0 in
  for i = 0 to n - k do
    let j = ref 0 in
    while !j < k && String.unsafe_get d (i + !j) = String.unsafe_get p !j do
      incr j
    done;
    if !j = k then incr c
  done;
  !c

(* Bit-reversal permutation of [0, n) (n a power of two): consecutive
   values land far apart, evenly covering the range. *)
let bit_reversed n =
  let bits = ref 0 in
  while 1 lsl !bits < n do
    incr bits
  done;
  Array.init n (fun i ->
      let r = ref 0 in
      for b = 0 to !bits - 1 do
        if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (!bits - 1 - b))
      done;
      !r)

(* 256 planted patterns of length 4..12, Zipf-ranked. A pattern's
   search cost grows with its match count, and the hottest few ranks
   carry most of the queries, so which pattern gets which rank decides
   the query tail. Ranks are therefore dealt out over the patterns
   sorted by match count in bit-reversed order: rank 0 gets the median
   count, ranks 1-2 the quartiles, and so on -- the hot patterns' match
   counts are quantiles of the pattern pool, which do not depend on the
   seed, instead of whichever patterns the seed happened to rank
   first. *)
let ranked_patterns st docs =
  let n = 256 in
  let pool =
    Array.init n (fun _ ->
        let len = 4 + Random.State.int st 9 in
        let p = Option.get (Text_gen.planted_pattern st docs ~len) in
        (Array.fold_left (fun a d -> a + occurrences_in d p) 0 docs, p))
  in
  Array.stable_sort compare pool;
  Array.map (fun r -> snd pool.(r)) (bit_reversed n)

(* Ids are assigned sequentially from 0 by the store (as by the model),
   so the generator knows every id in advance and only ever deletes or
   extracts live documents. *)
let generate cfg ~scale ~seconds st =
  let docs = Array.init (max 50 (cfg.preload * scale / 100)) (fun _ -> gen_doc st) in
  let texts = Hashtbl.create 4096 in
  let live = Pool.create () in
  Array.iteri
    (fun i d ->
      Hashtbl.replace texts i d;
      Pool.add live i)
    docs;
  let next_id = ref (Array.length docs) in
  let patterns = ranked_patterns st docs in
  let ztab = zipf_table (Array.length patterns) in
  let pattern () = patterns.(zipf_draw st ztab) in
  let write insert =
    if insert then begin
      let d = gen_doc st in
      Hashtbl.replace texts !next_id d;
      Pool.add live !next_id;
      incr next_id;
      Trace_op.Insert d
    end
    else begin
      let id = Pool.pick live st in
      Pool.remove live id;
      Trace_op.Delete id
    end
  in
  (* one group commit: as many inserts as deletes, in random order, so
     the collection keeps its size and the run is a stationary process *)
  let batch () =
    let kinds = Array.init cfg.batch (fun k -> 2 * k < cfg.batch) in
    for k = cfg.batch - 1 downto 1 do
      let j = Random.State.int st (k + 1) in
      let t = kinds.(k) in
      kinds.(k) <- kinds.(j);
      kinds.(j) <- t
    done;
    Array.map write kinds
  in
  let writes () = Writes (batch ()) in
  (* a write step carries [batch] writes, so it is drawn [batch] times
     less often to keep the per-op mix *)
  let write_w = cfg.w_write * 1000 / cfg.batch in
  let query_w = (cfg.w_count + cfg.w_search + cfg.w_extract) * 1000 in
  (* smaller inputs run faster: size the stream for that too *)
  let steps = cfg.max_rate * seconds * max 1 (100 / scale) / ((cfg.batch + 1) / 2) in
  let ops =
    Array.init steps (fun _ ->
        let r = Random.State.int st (write_w + query_w) in
        if r < write_w then writes ()
        else
          let q = (r - write_w) / 1000 in
          if q < cfg.w_count then Count (pattern ())
          else if q < cfg.w_count + cfg.w_search then Search (pattern ())
          else begin
            let id = Pool.pick live st in
            let d = Hashtbl.find texts id in
            let len = min (String.length d) (16 + Random.State.int st 49) in
            Extract (id, Random.State.int st (String.length d - len + 1), len)
          end)
  in
  let tail_ops = Array.init (max 1 (cfg.tail / cfg.batch)) (fun _ -> batch ()) in
  { docs; ops; tail_ops }

(* ---------- the run ---------- *)

type answer = A_int of int | A_hits of (int * int) list | A_text of string option | A_ids of Durable.batch_result list

let store_config cfg = { Durable.default_config with sync = Dsdg_store.Wal.Always; checkpoint_every = cfg.checkpoint_every }

let open_store cfg dir = fst (Durable.open_ ~config:(store_config cfg) ~dir ())

let bulk_load s docs =
  let n = Array.length docs in
  let i = ref 0 in
  while !i < n do
    let k = min 256 (n - !i) in
    ignore (Durable.apply_batch s (List.init k (fun j -> Trace_op.Insert docs.(!i + j))));
    i := !i + k
  done

let is_write = function Writes _ -> true | _ -> false

let run cfg ~seed ~seconds ~scale ~trace ~work =
  let st = Random.State.make [| seed; Hashtbl.hash cfg.name |] in
  let inp = generate cfg ~scale ~seconds st in
  let dir = Filename.concat work "store" in
  (* ---- setup: open + bulk load + checkpoint, several times ---- *)
  let setup_times = ref [] in
  let store = ref None in
  for _ = 1 to setup_reps do
    Option.iter Durable.close !store;
    rm_rf dir;
    settle ();
    let t0 = now_ns () in
    let s = open_store cfg dir in
    bulk_load s inp.docs;
    Durable.checkpoint s;
    setup_times := s_of_ns (now_ns () - t0) :: !setup_times;
    store := Some s
  done;
  let s = Option.get !store in
  let idx = Durable.index s in
  (* ---- timed phase ---- *)
  let u_lat = Samples.create () in
  let answers = ref [] in
  let sample_every = 37 in
  let nq = ref 0 in
  let updates = ref 0 in
  let core_scope = Di.obs_scope idx in
  let core0 = read_scope core_scope and store0 = read_named "store" and ss0 = read_named "semi_static" in
  settle ();
  let t_start = now_ns () in
  let deadline = t_start + (seconds * 1_000_000_000) in
  (* bits per symbol is sampled every half second and averaged: the
     dynamic layout cycles as sub-collections fill and are rebuilt, so a
     single reading at the end would depend on where the cycle stopped.
     The sampling time is left out of the timed phase. *)
  let paused = ref 0 and bits_samples = ref [] and last_w = ref (-1) in
  let q_segs = Array.init segments (fun _ -> Samples.create ()) in
  let u_segs = Array.init segments (fun _ -> Samples.create ()) and seg_ops = Array.make segments 0 in
  let i = ref 0 in
  let n_ops = Array.length inp.ops in
  let slices = Slices.create t_start in
  Util.Trace.on := trace;
  let done_ops = ref 0 in
  while !i < n_ops && now_ns () < deadline + !paused do
    let op = inp.ops.(!i) in
    let t0 = now_ns () in
    let ans =
      match op with
      | Count p -> A_int (Util.Trace.span ~req:!i "core.count" (fun () -> Di.count idx p))
      | Search p -> A_hits (Util.Trace.span ~req:!i "core.search" (fun () -> Di.search idx p))
      | Extract (doc, off, len) ->
        A_text (Util.Trace.span ~req:!i "core.extract" (fun () -> Di.extract idx ~doc ~off ~len))
      | Writes ws ->
        A_ids
          (Util.Trace.span ~req:!i "store.apply_batch" (fun () ->
               Durable.apply_batch s (Array.to_list ws)))
    in
    let t1 = now_ns () in
    let k = match op with Writes ws -> Array.length ws | _ -> 1 in
    let seg = segment_of ~seconds ~since_ns:(t1 - t_start - !paused) in
    seg_ops.(seg) <- seg_ops.(seg) + k;
    (match op with
     | Writes _ ->
       Samples.add u_lat (us_of_ns (t1 - t0));
       Samples.add u_segs.(seg) (us_of_ns (t1 - t0));
       updates := !updates + k
     | _ ->
       Samples.add q_segs.(seg) (us_of_ns (t1 - t0));
       incr nq);
    if is_write op || !nq mod sample_every = 0 then answers := (!i, ans) :: !answers;
    done_ops := !done_ops + k;
    let w = (t1 - t_start - !paused) / 500_000_000 in
    if w > !last_w then begin
      last_w := w;
      let ts = now_ns () in
      bits_samples := fratio (Di.space_bits idx) (Di.total_symbols idx) :: !bits_samples;
      paused := !paused + (now_ns () - ts)
    end;
    incr i;
    if trace then Slices.tick slices ~k t1
  done;
  let t_end = now_ns () in
  Slices.finish slices t_end;
  Util.Trace.on := false;
  let elapsed = s_of_ns (t_end - t_start - !paused) in
  let core1 = read_scope core_scope and store1 = read_named "store" and ss1 = read_named "semi_static" in
  let executed = !i in
  (* ---- correctness, outside the clock ---- *)
  let failed = ref 0 and notes = ref [] in
  let fail msg =
    incr failed;
    if List.length !notes < 5 then notes := msg :: !notes
  in
  if executed = n_ops then fail "the generated op stream ran out before the timed phase ended";
  let model = Model.create () in
  Array.iter (fun d -> ignore (Model.insert model d)) inp.docs;
  let answers = Array.of_list (List.rev !answers) in
  let ai = ref 0 in
  let apply_model_write = function
    | Trace_op.Insert d -> Durable.Br_inserted (Model.insert model d)
    | Trace_op.Delete id -> Durable.Br_deleted (Model.delete model id)
    | _ -> assert false
  in
  for j = 0 to executed - 1 do
    let recorded =
      if !ai < Array.length answers && fst answers.(!ai) = j then begin
        incr ai;
        Some (snd answers.(!ai - 1))
      end
      else None
    in
    match (inp.ops.(j), recorded) with
    | Writes ws, Some (A_ids got) ->
      let want = Array.to_list (Array.map apply_model_write ws) in
      if got <> want then fail (Printf.sprintf "write batch %d acknowledged differently from the model" j)
    | Writes ws, _ -> Array.iter (fun w -> ignore (apply_model_write w)) ws
    | Count p, Some (A_int c) -> if c <> Model.count model p then fail (Printf.sprintf "count %S" p)
    | Search p, Some (A_hits h) -> if h <> Model.search model p then fail (Printf.sprintf "search %S" p)
    | Extract (doc, off, len), Some (A_text t) ->
      if t <> Model.extract model ~doc ~off ~len then fail (Printf.sprintf "extract %d" doc)
    | _ -> ()
  done;
  (* equal counts + every model document live = equal live sets; a
     deterministic sample of them is also read back in full *)
  let check_live_set idx what =
    if Di.doc_count idx <> Model.doc_count model then fail (what ^ ": live document count differs");
    if Di.total_symbols idx <> Model.total_symbols model then fail (what ^ ": live symbol count differs");
    List.iteri
      (fun k (id, text) ->
        if not (Di.mem idx id) then fail (Printf.sprintf "%s: document %d lost" what id)
        else if k mod 8 = 0 && Di.extract idx ~doc:id ~off:0 ~len:(String.length text) <> Some text
        then fail (Printf.sprintf "%s: document %d altered" what id))
      (Model.live model)
  in
  check_live_set idx "after the timed phase";
  let attempted = executed in
  (* ---- space, disk after the final checkpoint ---- *)
  let bits_per_symbol = mean !bits_samples in
  let probe = Di.probe idx in
  let live_syms, dead_syms =
    List.fold_left (fun (l, d) (_, lv, dd) -> (l + lv, d + dd)) (0, 0) probe.Di.pr_census
  in
  Durable.checkpoint s;
  let raw = List.fold_left (fun a (_, t) -> a + String.length t) 0 (Model.live model) in
  let disk = du dir in
  let wal_bytes = du ~keep:is_wal_file dir in
  (* ---- WAL tail after the checkpoint, then crash + recover. The
     store is reopened without automatic checkpoints so the whole tail
     stays in the WAL for recovery to replay. ---- *)
  let tail_config = { (store_config cfg) with Durable.checkpoint_every = 0 } in
  Durable.close s;
  let s, _ = Durable.open_ ~config:tail_config ~dir () in
  Array.iter
    (fun ws ->
      let got = Durable.apply_batch s (Array.to_list ws) in
      let want = Array.to_list (Array.map apply_model_write ws) in
      if got <> want then fail "tail batch acknowledged differently from the model")
    inp.tail_ops;
  let s = ref s in
  let rec_times = ref [] and loads = ref [] and restores = ref [] and replayed = ref 0 in
  for r = 1 to recover_reps do
    Durable.kill !s ~torn:true;
    settle ();
    let st0 = read_named "store" in
    let t0 = now_ns () in
    let s', info = Durable.open_ ~config:tail_config ~dir () in
    let t1 = now_ns () in
    let st1 = read_named "store" in
    rec_times := s_of_ns (t1 - t0) :: !rec_times;
    loads := float_of_int (snd (hist_delta ~before:st0 ~after:st1 "snapshot_load_ns")) :: !loads;
    replayed := info.Recovery.ri_replayed;
    s := s';
    check_live_set (Durable.index s') (Printf.sprintf "after recovery %d" r);
    (* the snapshot rebuild alone, timed from outside: what recovery
       costs before the WAL tail is replayed *)
    if trace then begin
      match info.Recovery.ri_snapshot with
      | Some path ->
        let dump, _ = Snapshot.load path in
        let t1 = now_ns () in
        Di.close (Di.restore dump);
        restores := float_of_int (now_ns () - t1) :: !restores
      | None -> ()
    end
  done;
  Durable.close !s;
  let recover_s = median !rec_times in
  (* ---- metrics ---- *)
  let us = Samples.sorted u_lat in
  let e2e =
    [
      m "setup_s" (median !setup_times) "s";
      m "query_p50_us" (segment_pct q_segs 0.50) "us";
      m "update_p50_us" (segment_pct u_segs 0.50) "us";
      m "update_p99_us" (pct us 0.99) "us";
      m "ops_per_s" (segment_rate seg_ops ~seconds) "ops/s";
      m "recover_s" recover_s "s";
      m "bits_per_symbol" bits_per_symbol "bits";
      m "disk_bytes_per_raw_byte" (fratio disk raw) "ratio";
    ]
  in
  let layers =
    if not trace then []
    else begin
      let d = Util.Trace.durations in
      let p50 name = pct (Samples.sorted (d name)) 0.5 and p99 name = pct (Samples.sorted (d name)) 0.99 in
      let occ = ref 0 and nsearch = ref 0 in
      Array.iter
        (fun (_, a) -> match a with A_hits h -> occ := !occ + List.length h; incr nsearch | _ -> ())
        answers;
      let cd = counter_delta ~before:core0 ~after:core1 and hd = hist_delta ~before:core0 ~after:core1 in
      let sd = counter_delta ~before:store0 ~after:store1 and shd = hist_delta ~before:store0 ~after:store1 in
      let _, rebuilt = hist_delta ~before:ss0 ~after:ss1 "build_syms" in
      let traced_updates = Samples.count (d "store.apply_batch") * cfg.batch in
      let fu = float_of_int !updates in
      let _, wal_ns = shd "wal_append_ns" in
      let _, ckpt_ns = shd "checkpoint_ns" in
      let purge_n, _ = hd "purge_dead_permille" in
      let apply_span_ns = Samples.sum (d "store.apply_batch") *. 1e3 in
      (* the apply_batch spans cover only the traced slices, the WAL
         histogram the whole phase: scale the WAL sum to the traced
         share of the updates *)
      let wal_traced_ns = float_of_int wal_ns *. ratio (float_of_int traced_updates) fu in
      let load_ms = median !loads /. 1e6 in
      let restore_ms = median !restores /. 1e6 in
      let coverage = fratio (Util.Trace.root_cover ~lo:t_start ~hi:t_end) (Slices.traced_ns slices) in
      [
        m "core.count_p50_us" (p50 "core.count") "us";
        m "core.count_p99_us" (p99 "core.count") "us";
        m "core.search_p50_us" (p50 "core.search") "us";
        m "core.search_p99_us" (p99 "core.search") "us";
        m "core.extract_p50_us" (p50 "core.extract") "us";
        m "core.occ_per_search" (fratio !occ !nsearch) "count";
        m "core.apply_self_us_per_update"
          (ratio ((apply_span_ns -. wal_traced_ns) /. 1e3) (float_of_int traced_updates))
          "us";
        m "core.symbols_rebuilt_per_update" (ratio (float_of_int rebuilt) fu) "count";
        m "core.merges" (float_of_int (cd "jobs_started" + cd "sync_merges")) "count";
        m "core.purges" (float_of_int (purge_n - cd "top_cleanings")) "count";
        m "core.forced" (float_of_int (cd "forced")) "count";
        m "core.top_cleanings" (float_of_int (cd "top_cleanings")) "count";
        m "core.dead_fraction" (fratio dead_syms (live_syms + dead_syms)) "ratio";
        m "store.wal_busy_us_per_update" (ratio (float_of_int wal_ns /. 1e3) fu) "us";
        m "store.fsyncs_per_update" (ratio (float_of_int (sd "wal_fsyncs")) fu) "count";
        m "store.checkpoints" (float_of_int (sd "checkpoints")) "count";
        m "store.checkpoint_busy_ms" (float_of_int ckpt_ns /. 1e6) "ms";
        m "store.snapshot_load_ms" load_ms "ms";
        m "store.replayed_ops" (float_of_int !replayed) "count";
        m "store.replay_us_per_op"
          (ratio ((recover_s *. 1e3) -. load_ms -. restore_ms) (float_of_int !replayed) *. 1e3)
          "us";
        m "store.wal_bytes_per_raw_byte" (fratio wal_bytes raw) "ratio";
        m "trace.span_coverage" coverage "ratio";
        m "trace.overhead_pct" (Slices.overhead_pct slices) "%";
        m "trace.spans" (float_of_int !Util.Trace.n) "count";
      ]
    end
  in
  let notes =
    Printf.sprintf
      "%s: %d ops in %.2fs (%d queries, %d updates in %d group commits of %d); %d sampled answers checked; query p99 %.1f us (median of the segments' p99s; too unsteady on shared cores to be a bounded metric)"
      cfg.name !done_ops elapsed !nq !updates (Samples.count u_lat) cfg.batch
      (Array.length answers) (segment_pct q_segs 0.99)
    :: List.rev !notes
  in
  { e2e; layers; attempted; failed = !failed; notes }
