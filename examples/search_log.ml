(* Search-log analytics (the paper's motivating example): keep a rolling
   window of accessed URLs and answer "how many times did URLs containing
   substring X get accessed?" while the log churns.

   Run with:  dune exec examples/search_log.exe *)

open Dsdg_core
open Dsdg_workload

let () =
  let st = Text_gen.rng 2025 in
  let idx =
    Dynamic_index.create ~index:{ Index_config.default with variant = Worst_case; sample = 4 } ()
  in

  (* Ingest a synthetic access log. *)
  let window = 400 in
  let urls = Text_gen.url_log st ~count:1200 in
  let live = Queue.create () in
  Array.iter
    (fun url ->
      let id = Dynamic_index.insert idx url in
      Queue.add id live;
      (* rolling window: expire the oldest entries *)
      if Queue.length live > window then ignore (Dynamic_index.delete idx (Queue.pop live)))
    urls;

  Printf.printf "log window: %d URLs, %d symbols, %.2f bits/symbol\n"
    (Dynamic_index.doc_count idx) (Dynamic_index.total_symbols idx)
    (float_of_int (Dynamic_index.space_bits idx) /. float_of_int (Dynamic_index.total_symbols idx));

  (* Substring analytics over the live window. *)
  List.iter
    (fun sub -> Printf.printf "URLs containing %-9S : %d\n" sub (Dynamic_index.count idx sub))
    [ "shop"; "cart"; ".org"; "api"; "https"; "zzz" ];

  (* Which URLs mention "blog"?  Report a few. *)
  let hits = Dynamic_index.search idx "blog" in
  Printf.printf "\"blog\" occurs at %d positions; first documents:\n" (List.length hits);
  List.iteri
    (fun i (d, _off) ->
      if i < 5 then
        match Dynamic_index.extract idx ~doc:d ~off:0 ~len:38 with
        | Some prefix -> Printf.printf "  doc %d: %s...\n" d prefix
        | None ->
          (* short URL: take what is there *)
          Printf.printf "  doc %d\n" d)
    hits
