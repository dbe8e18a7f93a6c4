(* Tests for Doc_buffer, the uncompressed buffer C0 / L0: eager
   insert/delete over an id -> text map, queried only through its
   frozen read-plane component. *)

open Dsdg_core

let check = Alcotest.(check int)

let naive_search (docs : (int * string) list) (p : string) : (int * int) list =
  let res = ref [] in
  let pl = String.length p in
  List.iter
    (fun (d, str) ->
      for off = 0 to String.length str - pl do
        if String.sub str off pl = p then res := (d, off) :: !res
      done)
    docs;
  List.sort compare !res

let matches (v : Epoch_view.component) p =
  let acc = ref [] in
  v.search p ~f:(fun ~doc ~off -> acc := (doc, off) :: !acc);
  List.sort compare !acc

let of_docs docs =
  let b = Doc_buffer.create () in
  List.iter (fun (d, s) -> Doc_buffer.insert b ~doc:d s) docs;
  b

let check_matches msg docs b p =
  Alcotest.(check (list (pair int int))) msg (naive_search docs p) (matches (Doc_buffer.snapshot b) p)

let test_single_doc () =
  let docs = [ (0, "banana") ] in
  let b = of_docs docs in
  List.iter (fun p -> check_matches p docs b p)
    [ "a"; "an"; "ana"; "anan"; "banana"; "na"; "nan"; "x"; "bananaa" ]

(* Includes an empty document and patterns that would only match across
   a document boundary ("aba" = "banana" ^ "bandana"). *)
let test_multi_doc () =
  let docs = [ (0, "banana"); (1, "bandana"); (2, "ananas"); (3, "") ] in
  let b = of_docs docs in
  check "live symbols" (6 + 7 + 6 + 0 + 4) (Doc_buffer.live_symbols b);
  List.iter (fun p -> check_matches p docs b p)
    [ "a"; "an"; "ana"; "band"; "nas"; "s"; "q"; "banana"; "bandana"; "ananas"; "aba"; "sb" ];
  check "no match spans two documents" 0 ((Doc_buffer.snapshot b).count "ab")

let test_shared_prefixes () =
  let docs = List.mapi (fun i s -> (i, s)) [ "abcde"; "abcxy"; "abc"; "ab"; "a" ] in
  let b = of_docs docs in
  List.iter (fun p -> check_matches p docs b p) [ "a"; "ab"; "abc"; "abcd"; "abcx"; "bc"; "c" ]

let test_delete () =
  let b = of_docs [ (0, "banana"); (1, "bandana") ] in
  Alcotest.(check bool) "delete 0" true (Doc_buffer.delete b 0);
  Alcotest.(check bool) "delete 0 again" false (Doc_buffer.delete b 0);
  let docs = [ (1, "bandana") ] in
  List.iter (fun p -> check_matches ("after delete " ^ p) docs b p) [ "an"; "ana"; "ban"; "nd" ];
  Alcotest.(check (list (pair int string))) "docs" docs (Doc_buffer.docs b);
  ignore (Doc_buffer.delete b 1);
  check "empty count" 0 ((Doc_buffer.snapshot b).count "a")

(* Deletion is eager: the frozen component never reports dead symbols,
   and live symbols drop by each deleted document's size. *)
let test_delete_leaves_no_dead () =
  let b = Doc_buffer.create () in
  for d = 0 to 9 do
    Doc_buffer.insert b ~doc:d (Printf.sprintf "document number %d contents" d)
  done;
  for d = 0 to 7 do
    ignore (Doc_buffer.delete b d);
    check (Printf.sprintf "dead after delete %d" d) 0 (Doc_buffer.snapshot b).dead
  done;
  let docs = [ (8, "document number 8 contents"); (9, "document number 9 contents") ] in
  check "live symbols" (2 * 27) (Doc_buffer.live_symbols b);
  List.iter (fun p -> check_matches p docs b p) [ "document"; "number"; "8"; "9"; "0" ]

let test_reinsert_id_after_delete () =
  let b = of_docs [ (5, "hello") ] in
  ignore (Doc_buffer.delete b 5);
  Doc_buffer.insert b ~doc:5 "world";
  List.iter (fun p -> check_matches p [ (5, "world") ] b p) [ "world"; "hello"; "o"; "l" ]

let test_duplicate_insert_rejected () =
  let b = of_docs [ (1, "abc") ] in
  Alcotest.check_raises "dup" (Invalid_argument "Doc_buffer.insert: duplicate doc id") (fun () ->
      Doc_buffer.insert b ~doc:1 "def");
  Alcotest.(check (option string)) "first text kept" (Some "abc") (Doc_buffer.find b 1)

let test_delete_absent () =
  let b = of_docs [ (1, "abc"); (4, "cab") ] in
  let v = Doc_buffer.snapshot b in
  Alcotest.(check bool) "absent id" false (Doc_buffer.delete b 2);
  check "live symbols" 8 (Doc_buffer.live_symbols b);
  Alcotest.(check (list (pair int string))) "docs" [ (1, "abc"); (4, "cab") ] (Doc_buffer.docs b);
  Alcotest.(check bool) "cached snapshot kept" true (Doc_buffer.snapshot b == v)

let test_repetitive_doc () =
  let s = String.concat "" (List.init 30 (fun _ -> "ab")) in
  let b = of_docs [ (0, s) ] in
  let v = Doc_buffer.snapshot b in
  check "count ab" 30 (v.count "ab");
  check "count aba" 29 (v.count "aba");
  check "count b" 30 (v.count "b");
  check_matches "abab" [ (0, s) ] b "abab"

let test_identical_docs () =
  let b = of_docs [ (0, "same"); (1, "same"); (2, "same") ] in
  check "count" 3 ((Doc_buffer.snapshot b).count "same");
  ignore (Doc_buffer.delete b 1);
  check "count after delete" 2 ((Doc_buffer.snapshot b).count "same")

let test_empty_pattern () =
  let v = Doc_buffer.snapshot (of_docs [ (0, "abc") ]) in
  let raises = Invalid_argument "Doc_buffer.search: empty pattern" in
  Alcotest.check_raises "search" raises (fun () -> v.search "" ~f:(fun ~doc:_ ~off:_ -> ()));
  Alcotest.check_raises "count" raises (fun () -> ignore (v.count ""))

(* A component taken before an update answers for its own moment: the
   buffer's later inserts and deletes do not reach it. *)
let test_view_isolated () =
  let b = of_docs [ (0, "banana"); (1, "bandana") ] in
  let v = Doc_buffer.snapshot b in
  Doc_buffer.insert b ~doc:2 "ananas";
  ignore (Doc_buffer.delete b 0);
  check "live" 15 v.live;
  check "count an" 4 (v.count "an");
  Alcotest.(check bool) "mem 0" true (v.mem 0);
  Alcotest.(check bool) "mem 2" false (v.mem 2);
  Alcotest.(check (option string)) "extract 0" (Some "nan") (v.extract ~doc:0 ~off:2 ~len:3);
  Alcotest.(check (list (pair int string))) "docs" [ (0, "banana"); (1, "bandana") ] (v.docs ());
  let w = Doc_buffer.snapshot b in
  check "new count an" 4 (w.count "an");
  Alcotest.(check bool) "new mem 0" false (w.mem 0)

(* The charge covers every live byte, and the heap the buffer holds
   (record, map nodes, string blocks; no snapshot taken). *)
let test_space_bits () =
  let b = Doc_buffer.create () in
  let st = Random.State.make [| 0xb0f |] in
  for d = 0 to 40 do
    Doc_buffer.insert b ~doc:d (String.init (Random.State.int st 120) (fun _ -> 'a'))
  done;
  List.iter (fun d -> ignore (Doc_buffer.delete b d)) [ 3; 17; 29 ];
  let bytes = List.fold_left (fun a (_, s) -> a + String.length s) 0 (Doc_buffer.docs b) in
  let bits = Doc_buffer.space_bits b in
  Alcotest.(check bool) "at least 8 bits per live byte" true (bits >= 8 * bytes);
  Alcotest.(check bool) "at least the heap held" true
    (bits >= Sys.word_size * Obj.reachable_words (Obj.repr b))

(* --- properties --- *)

let gen_text = QCheck.Gen.(string_size ~gen:(map (fun i -> Char.chr (97 + i)) (int_bound 2)) (0 -- 12))

(* An op: insert a fresh text, insert a copy of a live text (repeated
   texts), or delete the k-th live document. *)
type op = Fresh of string | Copy of int | Del of int

let gen_ops =
  QCheck.Gen.(
    list_size (1 -- 30)
      (frequency
         [ (3, map (fun s -> Fresh s) gen_text); (1, map (fun k -> Copy k) small_nat);
           (2, map (fun k -> Del k) small_nat) ]))

let print_op = function
  | Fresh s -> "+" ^ s
  | Copy k -> Printf.sprintf "copy %d" k
  | Del k -> Printf.sprintf "del %d" k

let arb_ops = QCheck.make ~print:(fun l -> String.concat "; " (List.map print_op l)) gen_ops
let pattern p_raw = String.map (fun c -> Char.chr (97 + (Char.code c mod 3))) p_raw

(* Replays [ops] against a buffer and an association-list model, calling
   [f] after every op. *)
let replay ops ~f =
  let b = Doc_buffer.create () in
  let model = ref [] and next = ref 0 in
  let nth k = List.nth !model (k mod List.length !model) in
  List.iter
    (fun op ->
      (match op with
      | Fresh s ->
        Doc_buffer.insert b ~doc:!next s;
        model := !model @ [ (!next, s) ];
        incr next
      | Copy k when !model <> [] ->
        let s = snd (nth k) in
        Doc_buffer.insert b ~doc:!next s;
        model := !model @ [ (!next, s) ];
        incr next
      | Del k when !model <> [] ->
        let d = fst (nth k) in
        assert (Doc_buffer.delete b d);
        model := List.remove_assoc d !model
      | Copy _ | Del _ -> ());
      f b !model)
    ops

let prop_search_matches_naive =
  QCheck.Test.make ~name:"search = naive search" ~count:200
    QCheck.(pair arb_ops (string_of_size Gen.(1 -- 5)))
    (fun (ops, p_raw) ->
      QCheck.assume (String.length p_raw > 0);
      let p = pattern p_raw in
      let ok = ref true in
      replay ops ~f:(fun b model ->
          let v = Doc_buffer.snapshot b in
          let live = List.fold_left (fun a (_, s) -> a + String.length s + 1) 0 model in
          ok :=
            !ok && matches v p = naive_search model p && v.live = live && v.dead = 0
            && Doc_buffer.docs b = List.sort compare model);
      !ok)

(* Every component taken along the way keeps answering for its own
   moment after the stream has moved on. *)
let prop_search_under_churn =
  QCheck.Test.make ~name:"search = naive under churn" ~count:150
    QCheck.(pair arb_ops (string_of_size Gen.(1 -- 4)))
    (fun (ops, p_raw) ->
      QCheck.assume (String.length p_raw > 0);
      let p = pattern p_raw in
      let taken = ref [] in
      replay ops ~f:(fun b model -> taken := (Doc_buffer.snapshot b, model) :: !taken);
      List.for_all (fun (v, model) -> matches v p = naive_search model p) !taken)

let prop_count_matches_search =
  QCheck.Test.make ~name:"count = |search|" ~count:100
    QCheck.(pair arb_ops (string_of_size Gen.(1 -- 3)))
    (fun (ops, p_raw) ->
      QCheck.assume (String.length p_raw > 0);
      let p = pattern p_raw in
      let ok = ref true in
      replay ops ~f:(fun b _ ->
          let v = Doc_buffer.snapshot b in
          ok := !ok && v.count p = List.length (matches v p));
      !ok)

let qsuite =
  List.map Qc.to_alcotest [ prop_search_matches_naive; prop_search_under_churn; prop_count_matches_search ]

let suite =
  [ ("single doc", `Quick, test_single_doc);
    ("multi doc", `Quick, test_multi_doc);
    ("shared prefixes", `Quick, test_shared_prefixes);
    ("delete", `Quick, test_delete);
    ("delete leaves no dead symbols", `Quick, test_delete_leaves_no_dead);
    ("reinsert id after delete", `Quick, test_reinsert_id_after_delete);
    ("duplicate insert rejected", `Quick, test_duplicate_insert_rejected);
    ("delete absent changes nothing", `Quick, test_delete_absent);
    ("repetitive doc", `Quick, test_repetitive_doc);
    ("identical docs", `Quick, test_identical_docs);
    ("empty pattern raises", `Quick, test_empty_pattern);
    ("view unchanged by later updates", `Quick, test_view_isolated);
    ("space_bits covers the heap", `Quick, test_space_bits) ]
  @ qsuite
