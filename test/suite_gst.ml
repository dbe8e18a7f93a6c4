(* Tests for dsdg_gst: Ukkonen generalized suffix tree with document
   insertion/deletion and pattern search. *)

open Dsdg_gst

let check = Alcotest.(check int)

let naive_search (docs : (int * string) list) (p : string) : (int * int) list =
  let res = ref [] in
  let pl = String.length p in
  List.iter
    (fun (d, str) ->
      let n = String.length str in
      for off = 0 to n - pl do
        if String.sub str off pl = p then res := (d, off) :: !res
      done)
    docs;
  List.sort compare !res

let check_matches msg docs gst p =
  Alcotest.(check (list (pair int int))) msg (naive_search docs p)
    (Gsuffix_tree.occurrences gst p)

let test_single_doc () =
  let gst = Gsuffix_tree.create () in
  Gsuffix_tree.insert gst ~doc:0 "banana";
  let docs = [ (0, "banana") ] in
  List.iter (fun p -> check_matches p docs gst p)
    [ "a"; "an"; "ana"; "anan"; "banana"; "na"; "nan"; "x"; "bananaa" ]

let test_multi_doc () =
  let gst = Gsuffix_tree.create () in
  let docs = [ (0, "banana"); (1, "bandana"); (2, "ananas"); (3, "") ] in
  List.iter (fun (d, s) -> Gsuffix_tree.insert gst ~doc:d s) docs;
  check "doc_count" 4 (Gsuffix_tree.doc_count gst);
  List.iter (fun p -> check_matches p docs gst p)
    [ "a"; "an"; "ana"; "band"; "nas"; "s"; "q"; "banana"; "bandana"; "ananas" ]

let test_shared_prefixes () =
  let gst = Gsuffix_tree.create () in
  let docs = List.mapi (fun i s -> (i, s)) [ "abcde"; "abcxy"; "abc"; "ab"; "a" ] in
  List.iter (fun (d, s) -> Gsuffix_tree.insert gst ~doc:d s) docs;
  List.iter (fun p -> check_matches p docs gst p) [ "a"; "ab"; "abc"; "abcd"; "abcx"; "bc"; "c" ]

let test_delete () =
  let gst = Gsuffix_tree.create () in
  Gsuffix_tree.insert gst ~doc:0 "banana";
  Gsuffix_tree.insert gst ~doc:1 "bandana";
  Alcotest.(check bool) "delete 0" true (Gsuffix_tree.delete gst 0);
  Alcotest.(check bool) "delete 0 again" false (Gsuffix_tree.delete gst 0);
  let docs = [ (1, "bandana") ] in
  List.iter (fun p -> check_matches ("after delete " ^ p) docs gst p) [ "an"; "ana"; "ban"; "nd" ];
  check "doc_count" 1 (Gsuffix_tree.doc_count gst);
  (* deleting the other one empties the tree *)
  ignore (Gsuffix_tree.delete gst 1);
  check "empty count" 0 (Gsuffix_tree.count gst "a")

let test_delete_then_rebuild () =
  let gst = Gsuffix_tree.create () in
  for d = 0 to 9 do
    Gsuffix_tree.insert gst ~doc:d (Printf.sprintf "document number %d contents" d)
  done;
  for d = 0 to 7 do
    ignore (Gsuffix_tree.delete gst d)
  done;
  (* rebuild must have been triggered; dead symbols below live *)
  Alcotest.(check bool) "dead <= live" true
    (Gsuffix_tree.dead_symbols gst <= Gsuffix_tree.live_symbols gst);
  let docs = [ (8, "document number 8 contents"); (9, "document number 9 contents") ] in
  List.iter (fun p -> check_matches p docs gst p) [ "document"; "number"; "8"; "9"; "0" ]

let test_reinsert_id_after_delete () =
  let gst = Gsuffix_tree.create () in
  Gsuffix_tree.insert gst ~doc:5 "hello";
  ignore (Gsuffix_tree.delete gst 5);
  Gsuffix_tree.insert gst ~doc:5 "world";
  let docs = [ (5, "world") ] in
  List.iter (fun p -> check_matches p docs gst p) [ "world"; "hello"; "o"; "l" ]

let test_duplicate_insert_rejected () =
  let gst = Gsuffix_tree.create () in
  Gsuffix_tree.insert gst ~doc:1 "abc";
  Alcotest.check_raises "dup" (Invalid_argument "Gsuffix_tree.insert: duplicate doc id")
    (fun () -> Gsuffix_tree.insert gst ~doc:1 "def")

let test_repetitive_doc () =
  let gst = Gsuffix_tree.create () in
  let s = String.concat "" (List.init 30 (fun _ -> "ab")) in
  Gsuffix_tree.insert gst ~doc:0 s;
  check "count ab" 30 (Gsuffix_tree.count gst "ab");
  check "count aba" 29 (Gsuffix_tree.count gst "aba");
  check "count b" 30 (Gsuffix_tree.count gst "b");
  check_matches "abab" [ (0, s) ] gst "abab"

let test_identical_docs () =
  let gst = Gsuffix_tree.create () in
  Gsuffix_tree.insert gst ~doc:0 "same";
  Gsuffix_tree.insert gst ~doc:1 "same";
  Gsuffix_tree.insert gst ~doc:2 "same";
  check "count" 3 (Gsuffix_tree.count gst "same");
  ignore (Gsuffix_tree.delete gst 1);
  check "count after delete" 2 (Gsuffix_tree.count gst "same")

let gen_docs =
  let gen_doc = QCheck.Gen.(string_size ~gen:(map (fun i -> Char.chr (97 + i)) (int_bound 2)) (0 -- 40)) in
  QCheck.Gen.(list_size (1 -- 8) gen_doc)

let arb_docs = QCheck.make ~print:(fun l -> String.concat "|" l) gen_docs

let prop_search_matches_naive =
  QCheck.Test.make ~name:"gst search = naive search" ~count:200
    QCheck.(pair arb_docs (string_of_size Gen.(1 -- 5)))
    (fun (docs_l, p_raw) ->
      QCheck.assume (String.length p_raw > 0);
      let p = String.map (fun c -> Char.chr (97 + (Char.code c mod 3))) p_raw in
      let gst = Gsuffix_tree.create () in
      List.iteri (fun d s -> Gsuffix_tree.insert gst ~doc:d s) docs_l;
      let docs = List.mapi (fun d s -> (d, s)) docs_l in
      Gsuffix_tree.occurrences gst p = naive_search docs p)

let prop_search_after_deletes =
  QCheck.Test.make ~name:"gst search correct under churn" ~count:150
    QCheck.(triple arb_docs (list_of_size Gen.(0 -- 8) (int_bound 7)) (string_of_size Gen.(1 -- 4)))
    (fun (docs_l, deletions, p_raw) ->
      QCheck.assume (String.length p_raw > 0);
      let p = String.map (fun c -> Char.chr (97 + (Char.code c mod 3))) p_raw in
      let gst = Gsuffix_tree.create () in
      List.iteri (fun d s -> Gsuffix_tree.insert gst ~doc:d s) docs_l;
      let live = Hashtbl.create 8 in
      List.iteri (fun d s -> Hashtbl.replace live d s) docs_l;
      List.iter
        (fun d ->
          if Hashtbl.mem live d then begin
            Hashtbl.remove live d;
            ignore (Gsuffix_tree.delete gst d)
          end)
        deletions;
      let docs = Hashtbl.fold (fun d s acc -> (d, s) :: acc) live [] in
      let frozen = ref [] in
      Gsuffix_tree.view_search (Gsuffix_tree.snapshot gst) p ~f:(fun ~doc ~off ->
          frozen := (doc, off) :: !frozen);
      let expected = naive_search docs p in
      Gsuffix_tree.occurrences gst p = expected && List.sort compare !frozen = expected)

let prop_count_matches_occurrences =
  QCheck.Test.make ~name:"gst count = |occurrences|" ~count:100
    QCheck.(pair arb_docs (string_of_size Gen.(1 -- 3)))
    (fun (docs_l, p_raw) ->
      QCheck.assume (String.length p_raw > 0);
      let p = String.map (fun c -> Char.chr (97 + (Char.code c mod 3))) p_raw in
      let gst = Gsuffix_tree.create () in
      List.iteri (fun d s -> Gsuffix_tree.insert gst ~doc:d s) docs_l;
      Gsuffix_tree.count gst p = List.length (Gsuffix_tree.occurrences gst p))

let qsuite =
  List.map Qc.to_alcotest
    [ prop_search_matches_naive; prop_search_after_deletes; prop_count_matches_occurrences ]

let suite =
  [ ("single doc", `Quick, test_single_doc);
    ("multi doc", `Quick, test_multi_doc);
    ("shared prefixes", `Quick, test_shared_prefixes);
    ("delete", `Quick, test_delete);
    ("delete then rebuild", `Quick, test_delete_then_rebuild);
    ("reinsert id after delete", `Quick, test_reinsert_id_after_delete);
    ("duplicate insert rejected", `Quick, test_duplicate_insert_rejected);
    ("repetitive doc", `Quick, test_repetitive_doc);
    ("identical docs", `Quick, test_identical_docs) ]
  @ qsuite
