(* Library management (the paper's name for the dynamic indexing
   problem): drive a document collection through a mixed
   insert/delete/search/count stream and show the sub-collection
   structure doing its job -- geometric sizes, locked copies, background
   rebuilds, lazy deletions.

   Run with:  dune exec examples/library_mgmt.exe *)

open Dsdg_core
open Dsdg_workload

module T2 = Transform2.Make (Fm_static)

let () =
  let st = Text_gen.rng 11 in
  let t = T2.create { Index_config.default with sample = 4 } in
  let live_ids = ref [] in
  let nlive = ref 0 in

  let doc_gen () = Text_gen.english_like st ~len:(20 + Random.State.int st 200) in
  let pattern_gen () =
    Text_gen.words.(Random.State.int st (Array.length Text_gen.words))
  in
  let ops =
    Query_gen.stream st ~mix:Query_gen.default_mix ~ops:3000 ~doc_gen ~pattern_gen
  in
  let counters =
    Query_gen.run st ops
      ~insert:(fun text ->
        let id = T2.insert t text in
        live_ids := id :: !live_ids;
        incr nlive)
      ~delete_random:(fun () ->
        match !live_ids with
        | [] -> false
        | ids ->
          let k = Random.State.int st !nlive in
          let id = List.nth ids k in
          live_ids := List.filter (fun i -> i <> id) ids;
          decr nlive;
          T2.delete t id)
      ~search:(fun p ->
        let c = ref 0 in
        Epoch_view.search (T2.view t) p ~f:(fun ~doc:_ ~off:_ -> incr c);
        !c)
      ~count:(fun p -> Epoch_view.count (T2.view t) p)
  in

  Printf.printf "stream: %d inserts, %d deletes, %d searches, %d counts; %d matches touched\n"
    counters.Query_gen.inserts counters.Query_gen.deletes counters.Query_gen.searches
    counters.Query_gen.counts counters.Query_gen.matches_reported;
  Printf.printf "collection: %d documents, %d live symbols\n" (T2.doc_count t) (T2.total_symbols t);

  let s = T2.stats t in
  Printf.printf
    "machinery: %d background jobs started, %d completed, %d forced, %d sync merges, %d top cleanings, %d restructures\n"
    s.Transform2.jobs_started s.Transform2.jobs_completed s.Transform2.forced
    s.Transform2.sync_merges s.Transform2.top_cleanings s.Transform2.restructures;

  Printf.printf "\nsub-collection census (live/dead symbols):\n";
  List.iter
    (fun (name, live, dead) -> Printf.printf "  %-7s live=%-7d dead=%d\n" name live dead)
    (T2.census t);

  Printf.printf "\nrecent structural events:\n";
  List.iteri (fun i ev -> if i < 10 then Printf.printf "  %s\n" ev) (T2.events t)
