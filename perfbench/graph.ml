(* The [graph] workload: a Digraph with the default relation backend,
   built in setup from a web-crawl edge stream, then a closed loop of
   successor and predecessor scans, bounded BFS and edge churn (the
   evaluation method of Coimbra et al.: edge streams, neighbour scans,
   bits per edge). It touches only the binrel layer, so a change to the
   document side should leave every figure here flat. *)

open Util
module Digraph = Dsdg_binrel.Digraph
module Codec = Dsdg_store.Codec
module Graph_gen = Dsdg_workload.Graph_gen
module Rel = Dsdg_check.Model.Rel

let nodes = 8000
let edges = 40_000
let max_rate = 15_000
let setup_reps = 3
let recover_reps = 3
let bfs_depth = 2
let bfs_cap = 256

type op = Succ of int | Pred of int | Bfs of int | Add of int * int | Remove of int * int

type answer = A_list of int list | A_bool of bool

(* Bounded BFS: nodes reached within [bfs_depth] hops, at most
   [bfs_cap] of them, in visit order. [succ] is the successor scan. *)
let bfs succ src =
  let seen = Hashtbl.create 64 in
  Hashtbl.replace seen src ();
  let order = ref [ src ] and frontier = ref [ src ] and n = ref 1 in
  for _ = 1 to bfs_depth do
    let next = ref [] in
    List.iter
      (fun u ->
        List.iter
          (fun v ->
            if !n < bfs_cap && not (Hashtbl.mem seen v) then begin
              Hashtbl.replace seen v ();
              incr n;
              order := v :: !order;
              next := v :: !next
            end)
          (succ u))
      (List.rev !frontier);
    frontier := !next
  done;
  List.rev !order

let run ~seed ~seconds ~scale ~trace ~work =
  let st = Random.State.make [| seed; 7 |] in
  let nodes = max 200 (nodes * scale / 100) and edges = max 1000 (edges * scale / 100) in
  (* ---- inputs: the crawl, then a stream whose adds continue it ---- *)
  (* smaller inputs run faster: size the stream for that too *)
  let steps = max_rate * seconds * max 1 (100 / scale) in
  let stream = Graph_gen.web_crawl st ~nodes ~edges:(edges + (steps / 4) + 1000) in
  let base = Array.sub stream 0 edges in
  let live = Pool.create () in
  let code (u, v) = (u * (nodes + 1)) + v and decode c = (c / (nodes + 1), c mod (nodes + 1)) in
  Array.iter (fun e -> Pool.add live (code e)) base;
  let next_add = ref edges in
  let qsrc = Graph_gen.neighbor_queries st ~edges:base ~count:4096 in
  let bsrc = Graph_gen.bfs_sources st ~edges:base ~count:1024 in
  let ops =
    Array.init steps (fun _ ->
        let r = Random.State.int st 200 in
        if r < 70 then Succ qsrc.(Random.State.int st 4096)
        else if r < 140 then Pred (snd base.(Random.State.int st edges))
        else if r < 150 then Bfs bsrc.(Random.State.int st 1024)
        else if r < 175 && !next_add < Array.length stream then begin
          let e = stream.(!next_add) in
          incr next_add;
          Pool.add live (code e);
          Add (fst e, snd e)
        end
        else begin
          let c = Pool.pick live st in
          Pool.remove live c;
          let u, v = decode c in
          Remove (u, v)
        end)
  in
  (* ---- setup: build from the edge stream, several times ---- *)
  let setup_times = ref [] and g = ref (Digraph.create ()) in
  for _ = 1 to setup_reps do
    settle ();
    let t0 = now_ns () in
    let g' = Digraph.create () in
    Array.iter (fun (u, v) -> ignore (Digraph.add_edge g' u v)) base;
    setup_times := s_of_ns (now_ns () - t0) :: !setup_times;
    g := g'
  done;
  let g = !g in
  let stats0 = Digraph.stats g in
  (* ---- timed phase ---- *)
  let q_segs = Array.init segments (fun _ -> Samples.create ()) in
  let u_segs = Array.init segments (fun _ -> Samples.create ()) and seg_ops = Array.make segments 0 in
  let answers = ref [] and nq = ref 0 in
  settle ();
  let t_start = now_ns () in
  let deadline = t_start + (seconds * 1_000_000_000) in
  (* bits per edge is sampled every half second and averaged, the
     sampling time left out of the timed phase: the relation's layout
     cycles with its rebuild schedule *)
  let paused = ref 0 and bits_samples = ref [] and last_w = ref (-1) in
  let i = ref 0 in
  let succ_traced u = Util.Trace.span ~req:!i "binrel.bfs_scan" (fun () -> Digraph.successors g u) in
  let slices = Slices.create t_start in
  Util.Trace.on := trace;
  while !i < steps && now_ns () < deadline + !paused do
    let op = ops.(!i) in
    let t0 = now_ns () in
    let ans =
      match op with
      | Succ u -> A_list (Util.Trace.span ~req:!i "binrel.successors" (fun () -> Digraph.successors g u))
      | Pred v -> A_list (Util.Trace.span ~req:!i "binrel.predecessors" (fun () -> Digraph.predecessors g v))
      | Bfs s -> A_list (Util.Trace.span ~req:!i "binrel.bfs" (fun () -> bfs succ_traced s))
      | Add (u, v) -> A_bool (Util.Trace.span ~req:!i "binrel.add_edge" (fun () -> Digraph.add_edge g u v))
      | Remove (u, v) ->
        A_bool (Util.Trace.span ~req:!i "binrel.remove_edge" (fun () -> Digraph.remove_edge g u v))
    in
    let t1 = now_ns () in
    let since_ns = t1 - t_start - !paused in
    let seg = segment_of ~seconds ~since_ns in
    if since_ns / 500_000_000 > !last_w then begin
      last_w := since_ns / 500_000_000;
      let ts = now_ns () in
      bits_samples := fratio (Digraph.space_bits g) (Digraph.edge_count g) :: !bits_samples;
      paused := !paused + (now_ns () - ts)
    end;
    seg_ops.(seg) <- seg_ops.(seg) + 1;
    (match op with
     | Add _ | Remove _ -> Samples.add u_segs.(seg) (us_of_ns (t1 - t0))
     | _ ->
       Samples.add q_segs.(seg) (us_of_ns (t1 - t0));
       incr nq);
    (match ans with
     | A_bool _ -> answers := (!i, ans) :: !answers
     | A_list _ -> if !nq mod 97 = 0 then answers := (!i, ans) :: !answers);
    incr i;
    if trace then Slices.tick slices ~k:1 t1
  done;
  let t_end = now_ns () in
  Slices.finish slices t_end;
  Util.Trace.on := false;
  let elapsed = s_of_ns (t_end - t_start - !paused) in
  let executed = !i in
  let stats1 = Digraph.stats g in
  (* ---- correctness against the pair-set model, outside the clock ---- *)
  let failed = ref 0 and notes = ref [] in
  let fail msg =
    incr failed;
    if List.length !notes < 5 then notes := msg :: !notes
  in
  if executed = steps then fail "the generated op stream ran out before the timed phase ended";
  let model = Rel.create () in
  Array.iter (fun (u, v) -> ignore (Rel.add model u v)) base;
  let answers = Array.of_list (List.rev !answers) in
  let ai = ref 0 and bfs_checked = ref 0 in
  for j = 0 to executed - 1 do
    let recorded =
      if !ai < Array.length answers && fst answers.(!ai) = j then begin
        incr ai;
        Some (snd answers.(!ai - 1))
      end
      else None
    in
    match (ops.(j), recorded) with
    | Add (u, v), Some (A_bool b) -> if b <> Rel.add model u v then fail "add_edge outcome differs"
    | Remove (u, v), Some (A_bool b) ->
      if b <> Rel.remove model u v then fail "remove_edge outcome differs"
    | Succ u, Some (A_list l) ->
      if l <> Rel.labels_of_object model u then fail (Printf.sprintf "successors of %d" u)
    | Pred v, Some (A_list l) ->
      if l <> Rel.objects_of_label model v then fail (Printf.sprintf "predecessors of %d" v)
    | Bfs s, Some (A_list l) ->
      (* the model's scans are O(edges) each: check a few traversals *)
      if !bfs_checked < 4 then begin
        incr bfs_checked;
        if l <> bfs (Rel.labels_of_object model) s then fail (Printf.sprintf "bfs from %d" s)
      end
    | _ -> ()
  done;
  let pairs = Rel.pairs model in
  if List.sort compare (Digraph.edges g) <> pairs then fail "final edge set differs from the model";
  let n_edges = Digraph.edge_count g in
  let bits = mean !bits_samples in
  (* ---- persist the edge set, then recover from it ---- *)
  let path = Filename.concat work "graph.rel" in
  Codec.write_relation path (Digraph.edges g);
  let disk = (Unix.stat path).Unix.st_size in
  let rec_times = ref [] and loads = ref [] in
  for _ = 1 to recover_reps do
    settle ();
    let t0 = now_ns () in
    let ps = Codec.read_relation path in
    let t1 = now_ns () in
    let g' = Digraph.of_edges ps in
    let t2 = now_ns () in
    rec_times := s_of_ns (t2 - t0) :: !rec_times;
    loads := (float_of_int (t2 - t1) /. 1e6) :: !loads;
    if List.sort compare (Digraph.edges g') <> pairs then fail "recovered edge set differs from the model"
  done;
  let e2e =
    [
      m "setup_s" (median !setup_times) "s";
      m "query_p50_us" (segment_pct q_segs 0.50) "us";
      m "update_p50_us" (segment_pct u_segs 0.50) "us";
      m "update_p99_us" (segment_pct u_segs 0.99) "us";
      m "ops_per_s" (segment_rate seg_ops ~seconds) "ops/s";
      m "recover_s" (median !rec_times) "s";
      m "bits_per_symbol" bits "bits";
      m "disk_bytes_per_raw_byte" (fratio disk (8 * n_edges)) "ratio";
    ]
  in
  let layers =
    if not trace then []
    else begin
      let p name q = pct (Samples.sorted (Util.Trace.durations name)) q in
      let bfs_n = Samples.count (Util.Trace.durations "binrel.bfs") in
      let bfs_ms = Samples.sum (Util.Trace.durations "binrel.bfs") /. 1e3 in
      [
        m "binrel.add_edge_p50_us" (p "binrel.add_edge" 0.5) "us";
        m "binrel.remove_edge_p50_us" (p "binrel.remove_edge" 0.5) "us";
        m "binrel.merges" (float_of_int (stats1.merges - stats0.merges)) "count";
        m "binrel.purges" (float_of_int (stats1.purges - stats0.purges)) "count";
        m "binrel.global_rebuilds" (float_of_int (stats1.global_rebuilds - stats0.global_rebuilds)) "count";
        m "binrel.successors_p50_us" (p "binrel.successors" 0.5) "us";
        m "binrel.predecessors_p50_us" (p "binrel.predecessors" 0.5) "us";
        m "binrel.bfs_ms_per_source" (ratio bfs_ms (float_of_int bfs_n)) "ms";
        m "binrel.load_ms" (median !loads) "ms";
        m "trace.span_coverage"
          (fratio (Util.Trace.root_cover ~lo:t_start ~hi:t_end) (Slices.traced_ns slices))
          "ratio";
        m "trace.overhead_pct" (Slices.overhead_pct slices) "%";
        m "trace.spans" (float_of_int !Util.Trace.n) "count";
      ]
    end
  in
  let notes =
    Printf.sprintf "graph: %d nodes, %d edges at start, %d at end; %d ops in %.2fs (%d queries, %d updates); query p99 %.1f us"
      nodes edges n_edges executed elapsed !nq (executed - !nq) (segment_pct q_segs 0.99)
    :: List.rev !notes
  in
  { e2e; layers; attempted = executed; failed = !failed; notes }
