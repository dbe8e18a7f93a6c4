(* Tests for the public Dynamic_index API: every variant x backend
   combination must behave identically on the same operation stream. *)

open Dsdg_core

let check = Alcotest.(check int)

(* Every variant x backend pair, named by its transformation number
   ("t1/fm", ..., "t2/csa"); [describe] must spell out the same pair. *)
let all_configs =
  List.concat_map
    (fun (_, variant) ->
      let n = match variant with Dynamic_index.Amortized -> "1" | Amortized_loglog -> "3" | Worst_case -> "2" in
      List.map (fun (b, backend) -> (variant, backend, "t" ^ n ^ "/" ^ b)) Index_config.backends)
    Index_config.variants

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

let battery (variant, backend, name) () =
  let idx = Dynamic_index.create ~index:{ Index_config.default with variant; backend; sample = 2; tau = 4 } () in
  Alcotest.(check string) (name ^ " describe") ("transform" ^ String.sub name 1 (String.length name - 1))
    (Dynamic_index.describe idx);
  let st = Random.State.make [| 1234 |] in
  let model = Hashtbl.create 32 in
  for step = 1 to 80 do
    if Random.State.float st 1.0 < 0.65 || Hashtbl.length model = 0 then begin
      let len = Random.State.int st 50 in
      let text = String.init len (fun _ -> Char.chr (97 + Random.State.int st 3)) in
      let id = Dynamic_index.insert idx text in
      Alcotest.(check bool) (name ^ " fresh id") false (Hashtbl.mem model id);
      Hashtbl.replace model id text
    end
    else begin
      let ids = Hashtbl.fold (fun d _ acc -> d :: acc) model [] in
      let id = List.nth ids (Random.State.int st (List.length ids)) in
      Alcotest.(check bool) (name ^ " delete") true (Dynamic_index.delete idx id);
      Hashtbl.remove model id
    end;
    if step mod 16 = 0 then begin
      let live = Hashtbl.fold (fun d s acc -> (d, s) :: acc) model [] in
      List.iter
        (fun p ->
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s step %d %s" name step p)
            (naive_search live p) (Dynamic_index.search idx p);
          check (Printf.sprintf "%s count %s" name p) (List.length (naive_search live p))
            (Dynamic_index.count idx p))
        [ "a"; "ab"; "ba" ]
    end
  done;
  check (name ^ " doc_count") (Hashtbl.length model) (Dynamic_index.doc_count idx);
  Hashtbl.iter
    (fun id text ->
      Alcotest.(check bool) (name ^ " mem") true (Dynamic_index.mem idx id);
      Alcotest.(check (option string)) (name ^ " extract") (Some text)
        (Dynamic_index.extract idx ~doc:id ~off:0 ~len:(String.length text)))
    model;
  Alcotest.(check bool) (name ^ " space positive") true
    (Dynamic_index.doc_count idx = 0 || Dynamic_index.space_bits idx > 0)

(* Double-delete regression: the second delete of the same id (and a
   delete of a never-existing id) must return false and leave doc_count,
   total_symbols and query results untouched -- in every variant. *)
let double_delete (variant, backend, name) () =
  let idx = Dynamic_index.create ~index:{ Index_config.default with variant; backend; sample = 2; tau = 4 } () in
  let ids = List.init 25 (fun i -> Dynamic_index.insert idx (Printf.sprintf "twice doc %d" i)) in
  let victim = List.nth ids 7 in
  Alcotest.(check bool) (name ^ " first delete") true (Dynamic_index.delete idx victim);
  let docs = Dynamic_index.doc_count idx and syms = Dynamic_index.total_symbols idx in
  Alcotest.(check bool) (name ^ " double delete") false (Dynamic_index.delete idx victim);
  Alcotest.(check bool) (name ^ " unknown delete") false (Dynamic_index.delete idx 99999);
  check (name ^ " doc_count unchanged") docs (Dynamic_index.doc_count idx);
  check (name ^ " symbols unchanged") syms (Dynamic_index.total_symbols idx);
  Alcotest.(check bool) (name ^ " victim stays dead") false (Dynamic_index.mem idx victim);
  check (name ^ " count intact") 24 (Dynamic_index.count idx "twice doc")

let test_iter_matches () =
  let idx = Dynamic_index.create () in
  let id = Dynamic_index.insert idx "abcabc" in
  let acc = ref [] in
  Dynamic_index.iter_matches idx "abc" ~f:(fun ~doc ~off -> acc := (doc, off) :: !acc);
  Alcotest.(check (list (pair int int))) "iter" [ (id, 0); (id, 3) ] (List.sort compare !acc)

let test_delete_unknown () =
  let idx = Dynamic_index.create () in
  Alcotest.(check bool) "delete unknown" false (Dynamic_index.delete idx 42);
  Alcotest.(check bool) "mem unknown" false (Dynamic_index.mem idx 42)

let test_unicode_bytes () =
  (* the index is byte-oriented: any byte except none is fine *)
  let idx = Dynamic_index.create () in
  let text = "caf\xc3\xa9 na\xc3\xafve" in
  let id = Dynamic_index.insert idx text in
  check "count byte seq" 2 (Dynamic_index.count idx "\xc3\xa9" + Dynamic_index.count idx "\xc3\xaf");
  Alcotest.(check (option string)) "extract roundtrip" (Some text)
    (Dynamic_index.extract idx ~doc:id ~off:0 ~len:(String.length text))

let suite =
  List.map (fun cfg -> (let _, _, n = cfg in n ^ " churn battery"), `Quick, battery cfg) all_configs
  @ List.map
      (fun cfg -> (let _, _, n = cfg in n ^ " double delete"), `Quick, double_delete cfg)
      all_configs
  @ [ ("iter_matches", `Quick, test_iter_matches);
      ("delete unknown", `Quick, test_delete_unknown);
      ("unicode bytes", `Quick, test_unicode_bytes) ]
