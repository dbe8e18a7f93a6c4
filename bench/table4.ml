(* Table 4 / Theorem 1: counting queries.

   Counting surviving occurrences uses a Fenwick range count over the
   liveness vector: tcount = trange + O(log n), *independent of occ*.
   Reporting pays per occurrence.  The crossover as occ grows is the
   shape to reproduce. *)

open Dsdg_core
open Dsdg_workload

module T1 = Transform1.Make (Fm_static)

let run () =
  let st = Text_gen.rng 23 in
  (* low-entropy corpus so short patterns have many occurrences *)
  let docs = Text_gen.corpus st ~count:200 ~avg_len:500 ~kind:(`Uniform 4) in
  let n = Array.fold_left (fun a d -> a + String.length d + 1) 0 docs in
  let t = T1.create { Index_config.default with variant = Amortized } in
  Array.iter (fun d -> ignore (T1.insert t d)) docs;
  (* delete a slice so the liveness machinery is actually exercised *)
  for id = 0 to Array.length docs - 1 do
    if id mod 5 = 0 then ignore (T1.delete t id)
  done;
  Printf.printf "\n[table4] corpus: %d symbols, 20%% deleted\n" n;
  let rows =
    List.filter_map
      (fun plen ->
        match Text_gen.planted_pattern st docs ~len:plen with
        | None -> None
        | Some p ->
          let occ = Epoch_view.count (T1.view t) p in
          let count_ns = Bench_util.per_op ~iters:50 (fun () -> Epoch_view.count (T1.view t) p) in
          let report_ns =
            Bench_util.per_op ~iters:10 (fun () ->
                let c = ref 0 in
                Epoch_view.search (T1.view t) p ~f:(fun ~doc:_ ~off:_ -> incr c);
                !c)
          in
          Some
            [ string_of_int plen; string_of_int occ; Bench_util.ns_str count_ns;
              Bench_util.ns_str report_ns;
              (if occ = 0 then "n/a" else Printf.sprintf "%.1fx" (report_ns /. count_ns)) ])
      [ 1; 2; 3; 4; 6; 8; 12 ]
  in
  Bench_util.print_table
    ~title:
      "Table 4: counting vs reporting  [expect count ~flat in occ, report ~linear; ratio grows]"
    ~header:[ "|P|"; "occ"; "count time"; "report time"; "report/count" ]
    rows
