(* Benchmark harness: one experiment per table and figure of the paper
   (see DESIGN.md section 3 for the experiment index), plus ablations.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- LIST    -- run selected experiments

   Also registers one Bechamel micro-benchmark group per paper table
   ("microbench" target) for per-operation statistics. *)

open Bechamel

let micro () =
  (* One Test.make per table: the headline per-op of each experiment. *)
  let open Dsdg_core in
  let open Dsdg_workload in
  let st = Text_gen.rng 99 in
  let docs = Text_gen.corpus st ~count:100 ~avg_len:300 ~kind:(`Markov (8, 0.6)) in
  let fm = Dsdg_fm.Fm_index.build ~sample:8 docs in
  let module T2 = Transform2.Make (Fm_static) in
  let t2 = T2.create Index_config.default in
  Array.iter (fun d -> ignore (T2.insert t2 d)) docs;
  let base = Dsdg_dynseq.Dyn_fm.create () in
  Array.iteri (fun i d -> Dsdg_dynseq.Dyn_fm.insert base ~doc:i d) docs;
  let rel = Dsdg_binrel.Dyn_binrel.create () in
  for i = 0 to 5000 do
    ignore (Dsdg_binrel.Dyn_binrel.add rel (i mod 500) (i mod 37))
  done;
  let pat = match Text_gen.planted_pattern st docs ~len:4 with Some p -> p | None -> "data" in
  let tests =
    [
      Test.make ~name:"table1/static-fm-count" (Staged.stage (fun () -> Dsdg_fm.Fm_index.count fm pat));
      Test.make ~name:"table2/transform2-count"
        (Staged.stage (fun () -> Epoch_view.count (T2.view t2) pat));
      Test.make ~name:"table2/baseline-dynbwt-count"
        (Staged.stage (fun () -> Dsdg_dynseq.Dyn_fm.count base pat));
      Test.make ~name:"table3/plain-sa-backend-count"
        (let module T2s = Transform2.Make (Sa_static) in
         let t2s = T2s.create Index_config.default in
         Array.iter (fun d -> ignore (T2s.insert t2s d)) docs;
         Staged.stage (fun () -> Epoch_view.count (T2s.view t2s) pat));
      Test.make ~name:"table4/count-with-liveness"
        (Staged.stage (fun () -> Epoch_view.count (T2.view t2) pat));
      Test.make ~name:"binrel/related"
        (Staged.stage (fun () -> Dsdg_binrel.Dyn_binrel.related rel 123 7));
    ]
  in
  let results = Bench_util.run_tests ~quota:0.4 tests in
  Bench_util.print_table ~title:"Bechamel micro-benchmarks (ns/op, OLS estimate)"
    ~header:[ "benchmark"; "ns/op" ]
    (List.map (fun (name, ns) -> [ name; Bench_util.ns_str ns ]) results)

let experiments =
  [
    ("table1", Table1.run);
    ("backends", Bench_backends.run);
    ("sequences", Bench_sequences.run);
    ("table2", Table2.run);
    ("table3", Table3.run);
    ("table4", Table4.run);
    ("binrel", Bench_binrel.run);
    ("graph", Bench_binrel.run_graph);
    ("fig1", Bench_figures.fig1);
    ("fig2", Bench_figures.fig2);
    ("fig3", Bench_figures.fig3);
    ("exec", Bench_exec.run);
    ("readers", Bench_readers.run);
    ("store", Bench_store.run);
    ("serve", Bench_serve.run);
    ("follow", Bench_follow.run);
    ("shard", Bench_shard.run);
    ("ablation_tau", Bench_ablations.ablation_tau);
    ("ablation_s", Bench_ablations.ablation_s);
    ("ablation_t3", Bench_ablations.ablation_t3);
    ("ablation_work", Bench_ablations.ablation_work_factor);
    ("ablation_obs", Bench_ablations.ablation_obs_overhead);
    ("lemma23", Bench_ablations.lemma23);
    ("microbench", micro);
  ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  let to_run =
    if requested = [] then experiments
    else
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> (name, f)
          | None ->
            Printf.eprintf "unknown experiment %S; available: %s\n" name
              (String.concat ", " (List.map fst experiments));
            exit 2)
        requested
  in
  Printf.printf "dsdg benchmark harness -- reproducing Munro-Nekrich-Vitter (PODS 2015)\n";
  List.iter
    (fun (name, f) ->
      let _, ns = Bench_util.time_ns f in
      Printf.printf "[%s done in %s]\n%!" name (Bench_util.ns_str ns))
    to_run
