(* Substring selectivity estimation (the paper's Section 1 motivation,
   via Orlandi-Venturini [38] and the LIKE-predicate literature): a query
   optimizer wants the selectivity of  WHERE col LIKE '%pattern%'  over a
   *changing* table without scanning it.

   With a dynamic compressed index over the column values, selectivity is
   a counting query (Theorem 1): count / total, exact, in microseconds,
   and it stays correct as rows are inserted and deleted.

   Run with:  dune exec examples/selectivity.exe *)

open Dsdg_core
open Dsdg_workload

let () =
  let st = Text_gen.rng 99 in
  let idx = Dynamic_index.create ~index:{ Index_config.default with sample = 4 } () in

  (* a "product names" column *)
  let adjectives = [| "small"; "large"; "blue"; "red"; "heavy"; "smart"; "eco" |] in
  let nouns = [| "widget"; "gadget"; "bracket"; "socket"; "cable"; "sensor" |] in
  let row () =
    Printf.sprintf "%s %s %d"
      adjectives.(Random.State.int st (Array.length adjectives))
      nouns.(Random.State.int st (Array.length nouns))
      (Random.State.int st 1000)
  in
  let ids = ref [] in
  for _ = 1 to 3000 do
    ids := Dynamic_index.insert idx (row ()) :: !ids
  done;

  let rows () = Dynamic_index.doc_count idx in
  let selectivity p =
    (* fraction of rows containing the pattern: distinct docs among hits *)
    let seen = Hashtbl.create 64 in
    Dynamic_index.iter_matches idx p ~f:(fun ~doc ~off:_ -> Hashtbl.replace seen doc ());
    float_of_int (Hashtbl.length seen) /. float_of_int (rows ())
  in
  Printf.printf "table: %d rows, %d symbols\n\n" (rows ()) (Dynamic_index.total_symbols idx);
  Printf.printf "%-28s %10s %12s\n" "predicate" "matches" "selectivity";
  List.iter
    (fun p ->
      Printf.printf "LIKE '%%%s%%' %*s %10d %11.1f%%\n" p (max 0 (17 - String.length p)) ""
        (Dynamic_index.count idx p)
        (100. *. selectivity p))
    [ "widget"; "blue"; "smart"; "cke"; "e c"; "zzz" ];

  (* the table churns; estimates stay exact *)
  List.iteri (fun i id -> if i mod 2 = 0 then ignore (Dynamic_index.delete idx id)) !ids;
  for _ = 1 to 500 do
    ignore (Dynamic_index.insert idx (row ()))
  done;
  Printf.printf "\nafter churn (%d rows):\n" (rows ());
  List.iter
    (fun p ->
      Printf.printf "LIKE '%%%s%%' -> %.1f%%\n" p (100. *. selectivity p))
    [ "widget"; "blue"; "zzz" ]
