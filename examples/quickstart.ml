(* Quickstart: a dynamic compressed document index in a dozen lines.

   Run with:  dune exec examples/quickstart.exe *)

open Dsdg_core

let () =
  (* A worst-case-update dynamic index over the compressed FM backend. *)
  let idx = Dynamic_index.create ~index:{ Index_config.default with variant = Worst_case } () in

  let doc1 = Dynamic_index.insert idx "the quick brown fox jumps over the lazy dog" in
  let doc2 = Dynamic_index.insert idx "pack my box with five dozen liquor jugs" in
  let doc3 = Dynamic_index.insert idx "the five boxing wizards jump quickly" in

  Printf.printf "indexed %d documents (%d symbols) using %s\n"
    (Dynamic_index.doc_count idx) (Dynamic_index.total_symbols idx) (Dynamic_index.describe idx);

  (* Pattern queries report (document id, offset) pairs. *)
  let show p =
    let hits = Dynamic_index.search idx p in
    Printf.printf "%-8s -> %d hit(s):%s\n" (Printf.sprintf "%S" p) (List.length hits)
      (String.concat "" (List.map (fun (d, o) -> Printf.sprintf " (doc %d, off %d)" d o) hits))
  in
  show "quick";
  show "five";
  show "the";
  show "zebra";

  (* Counting without reporting is cheaper. *)
  Printf.printf "count \"jump\" = %d\n" (Dynamic_index.count idx "jump");

  (* Extract any substring of any live document. *)
  (match Dynamic_index.extract idx ~doc:doc2 ~off:8 ~len:3 with
  | Some s -> Printf.printf "doc2[8..10] = %S\n" s
  | None -> assert false);

  (* Deletion is immediate; queries never see deleted documents. *)
  ignore (Dynamic_index.delete idx doc1);
  Printf.printf "after deleting doc %d: count \"the\" = %d, count \"five\" = %d\n" doc1
    (Dynamic_index.count idx "the") (Dynamic_index.count idx "five");
  ignore doc3;

  Printf.printf "space: %d bits (%.2f bits/symbol)\n" (Dynamic_index.space_bits idx)
    (float_of_int (Dynamic_index.space_bits idx) /. float_of_int (Dynamic_index.total_symbols idx))
