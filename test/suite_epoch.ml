(* Epoch retention, point-in-time queries, and pins on the core index:
   the ring keeps the n newest published views resolvable, [query
   ~epoch] answers byte-identically to a fresh replay of the op-trace
   prefix that produced the epoch, and a pin shields one view from
   eviction until unpinned. *)

open Dsdg_core
module Di = Dynamic_index

type op = I of string | D of int

let apply idx = function
  | I s -> ignore (Di.insert idx s)
  | D id ->
    if not (Di.delete idx id) then Alcotest.failf "delete %d refused" id

let live_epoch idx = Di.view_epoch (Di.view idx)

(* a churny little trace: ids are assigned sequentially by insert, so
   replaying any prefix on a fresh index reproduces the same ids *)
let trace =
  [ I "banana"; I "bandana"; I "ananas"; D 1; I "cabana"; I "radar";
    D 0; I "abracadabra"; D 4; I "dorado"; I "banister"; D 2;
    I "anagram"; I "saraband"; D 7; I "urbane" ]

let patterns = [ "a"; "an"; "ana"; "ban"; "na"; "ra"; "do"; "x"; "band" ]

(* every observable answer of a view, as one comparable value *)
let fingerprint ~max_doc v =
  let searches = List.map (fun p -> (p, Di.view_search v p)) patterns in
  let docs =
    List.init (max_doc + 1) (fun d ->
        (Di.view_mem v d, Di.view_extract v ~doc:d ~off:0 ~len:64))
  in
  (Di.view_epoch v, Di.view_doc_count v, Di.view_total_symbols v, searches, docs)

(* --- retention ring bounds and view_at hit/miss --- *)

let test_retention_ring () =
  let idx = Di.create ~index:{ Index_config.default with retain_epochs = 3 } () in
  Alcotest.(check int) "retain_epochs" 3 (Di.retain_epochs idx);
  Alcotest.(check (list int)) "empty index retains its live epoch" [ 0 ] (Di.retained idx);
  let docs_at = Hashtbl.create 32 in
  Hashtbl.replace docs_at 0 0;
  List.iteri
    (fun i op ->
      apply idx op;
      let e = live_epoch idx in
      Alcotest.(check int) "one epoch per update" (i + 1) e;
      Hashtbl.replace docs_at e (Di.doc_count idx);
      let r = Di.retained idx in
      Alcotest.(check bool) "live epoch retained" true (List.mem e r);
      Alcotest.(check bool) "ring bounded" true (List.length r <= 3);
      Alcotest.(check (list int)) "ascending" (List.sort compare r) r)
    trace;
  let last = live_epoch idx in
  (* the 3 newest published views (the live one included) resolve;
     anything older misses *)
  for e = 0 to last do
    match Di.view_at idx ~epoch:e with
    | Some v ->
      Alcotest.(check bool) "hit is recent" true (e >= last - 2);
      Alcotest.(check int) "hit epoch" e (Di.view_epoch v);
      Alcotest.(check int) (Printf.sprintf "doc_count at %d" e)
        (Hashtbl.find docs_at e) (Di.view_doc_count v)
    | None -> Alcotest.(check bool) "miss is old" true (e < last - 2)
  done;
  (* an epoch the writer never published misses too *)
  Alcotest.(check bool) "future epoch misses" true (Di.view_at idx ~epoch:(last + 1) = None)

let test_retain_nothing () =
  let idx = Di.create () in
  Alcotest.(check int) "default retains nothing" 0 (Di.retain_epochs idx);
  List.iter (apply idx) trace;
  let last = live_epoch idx in
  Alcotest.(check (list int)) "only the live view" [ last ] (Di.retained idx);
  Alcotest.(check bool) "previous epoch gone" true (Di.view_at idx ~epoch:(last - 1) = None);
  Alcotest.(check bool) "live epoch resolves" true (Di.view_at idx ~epoch:last <> None)

(* --- acceptance criterion: query ~epoch = trace-prefix replay --- *)

let test_query_epoch_matches_prefix_replay () =
  let idx = Di.create ~index:{ Index_config.default with retain_epochs = List.length trace } () in
  List.iter (apply idx) trace;
  let max_doc = List.length (List.filter (function I _ -> true | D _ -> false) trace) in
  List.iter
    (fun epoch ->
      (* state after [epoch] updates = replay of the first [epoch] ops *)
      let fresh = Di.create () in
      List.iteri (fun i op -> if i < epoch then apply fresh op) trace;
      Alcotest.(check int) "replay lands on the epoch" epoch (live_epoch fresh);
      let expected = Di.query fresh (fingerprint ~max_doc) in
      let got = Di.query ~epoch idx (fingerprint ~max_doc) in
      if got <> expected then
        Alcotest.failf "query ~epoch:%d diverges from prefix replay" epoch)
    (Di.retained idx)

(* --- pins survive eviction --- *)

let test_pin_survives_eviction () =
  let idx = Di.create ~index:{ Index_config.default with retain_epochs = 2 } () in
  let prefix = [ I "banana"; I "bandana"; I "ananas" ] in
  List.iter (apply idx) prefix;
  let e3 = live_epoch idx in
  let pin = Di.pin idx in
  Alcotest.(check int) "pin_epoch" e3 (Di.pin_epoch pin);
  Alcotest.(check int) "pinned_count" 1 (Di.pinned_count idx);
  List.iteri (fun i op -> if i >= 3 then apply idx op) trace;
  let last = live_epoch idx in
  Alcotest.(check bool) "pin far behind the ring" true (e3 < last - 1);
  (* the pinned epoch still resolves, and answers like the prefix *)
  Alcotest.(check bool) "retained lists the pin" true (List.mem e3 (Di.retained idx));
  (match Di.view_at idx ~epoch:e3 with
  | None -> Alcotest.fail "pinned epoch evicted"
  | Some v ->
    Alcotest.(check int) "pinned doc_count" 3 (Di.view_doc_count v);
    let fresh = Di.create () in
    List.iter (apply fresh) prefix;
    let expected = Di.query fresh (fingerprint ~max_doc:3) in
    Alcotest.(check bool) "pinned view = prefix replay" true
      (fingerprint ~max_doc:3 (Di.pin_view pin) = expected
      && fingerprint ~max_doc:3 v = expected));
  Di.unpin idx pin;
  Di.unpin idx pin;
  (* idempotent *)
  Alcotest.(check int) "unpinned" 0 (Di.pinned_count idx);
  Alcotest.(check bool) "evicted after unpin" true (Di.view_at idx ~epoch:e3 = None)

let test_pin_retained_epoch () =
  let idx = Di.create ~index:{ Index_config.default with retain_epochs = 4 } () in
  List.iter (apply idx) [ I "banana"; I "bandana"; I "ananas"; D 1 ];
  (* pin a ring slot, not the live view *)
  let pin = Di.pin ~epoch:2 idx in
  Alcotest.(check int) "pin_epoch" 2 (Di.pin_epoch pin);
  List.iter (apply idx) [ I "cabana"; I "radar"; D 0; I "abracadabra"; I "dorado" ];
  (match Di.view_at idx ~epoch:2 with
  | None -> Alcotest.fail "pinned ring epoch evicted"
  | Some v -> Alcotest.(check int) "doc_count at pinned epoch" 2 (Di.view_doc_count v));
  Di.unpin idx pin;
  Alcotest.(check bool) "gone after unpin" true (Di.view_at idx ~epoch:2 = None)

(* --- misses raise from query ~epoch --- *)

let test_query_epoch_invalid () =
  let idx = Di.create ~index:{ Index_config.default with retain_epochs = 2 } () in
  List.iter (apply idx) [ I "banana"; I "bandana"; I "ananas" ];
  List.iter
    (fun epoch ->
      match Di.query ~epoch idx Di.view_doc_count with
      | _ -> Alcotest.failf "query ~epoch:%d should raise" epoch
      | exception Invalid_argument _ -> ())
    [ 0; 1; 99 ];
  (* the live epoch and the one ring slot still answer *)
  Alcotest.(check int) "ring slot" 2 (Di.query ~epoch:2 idx Di.view_doc_count);
  Alcotest.(check int) "live" 3 (Di.query ~epoch:3 idx Di.view_doc_count)

(* --- one read plane: the view against the writer, every pair --- *)

module Trace = Dsdg_check.Trace

let pairs =
  List.concat_map
    (fun (v, variant) -> List.map (fun (b, backend) -> (v ^ "/" ^ b, variant, backend)) Index_config.backends)
    Index_config.variants

(* Whether a census name is [prefix] followed by a level number
   ([leveled "Temp3" "Temp"], not [leveled "Temp3" "T"]). *)
let leveled name prefix =
  let pl = String.length prefix in
  String.length name > pl
  && String.sub name 0 pl = prefix
  && int_of_string_opt (String.sub name pl (String.length name - pl)) <> None

(* A churny stream at jobs = 0 through every variant x backend pair:
   after every op the latest view's census is the writer's census,
   names and order included, and Transformation 2's views show locked
   copies or staging areas mid-job and top collections. *)
let test_view_census_is_writer_census () =
  let ops = Dsdg_check.Opgen.generate ~profile:Dsdg_check.Opgen.churny ~seed:7 ~ops:600 () in
  List.iter
    (fun (name, variant, backend) ->
      let idx = Di.create ~index:{ Index_config.default with variant; backend; sample = 2; tau = 4 } () in
      let seen = Hashtbl.create 16 in
      List.iteri
        (fun step op ->
          (match (op : Trace.op) with
          | Insert s -> ignore (Di.insert idx s)
          | Delete id -> ignore (Di.delete idx id)
          | Drain -> Di.drain idx
          | Search _ | Count _ | Extract _ | Mem _ -> ());
          let census = Di.view_census (Di.view idx) in
          List.iter
            (fun (n, _, _) ->
              List.iter
                (fun prefix -> if leveled n prefix then Hashtbl.replace seen prefix ())
                [ "L"; "Temp"; "T" ])
            census;
          Alcotest.(check (list (triple string int int)))
            (Printf.sprintf "%s op %d: view census = census" name (step + 1))
            (Di.probe idx).Di.pr_census census)
        ops;
      if variant = Di.Worst_case then
        Alcotest.(check (list bool))
          (name ^ ": views showed L or Temp mid-job, and T")
          [ true; true ]
          [ Hashtbl.mem seen "L" || Hashtbl.mem seen "Temp"; Hashtbl.mem seen "T" ])
    pairs

(* A view's dump (the inversion of its components) restores to an
   index with the view's answers, taken mid-stream (Transformation 2's
   L/Temp components included). *)
let test_view_components_round_trip () =
  let ops = Dsdg_check.Opgen.generate ~profile:Dsdg_check.Opgen.churny ~seed:11 ~ops:400 () in
  let pats = [ "a"; "ab"; "ba"; "abc"; "cc" ] in
  List.iter
    (fun (name, variant, backend) ->
      let index = { Index_config.default with variant; backend; sample = 2; tau = 4 } in
      let idx = Di.create ~index () in
      let texts = Hashtbl.create 64 in
      List.iteri
        (fun step op ->
          (match (op : Trace.op) with
          | Insert s -> Hashtbl.replace texts (Di.insert idx s) s
          | Delete id -> ignore (Di.delete idx id)
          | _ -> ());
          if step mod 40 = 39 then begin
            let v = Di.view idx in
            let restored = Di.restore ~index (Di.view_dump idx v) in
            let label what = Printf.sprintf "%s op %d: %s" name (step + 1) what in
            Alcotest.(check int) (label "epoch") (Di.view_epoch v) (Di.view_epoch (Di.view restored));
            Alcotest.(check int) (label "docs") (Di.view_doc_count v) (Di.doc_count restored);
            Alcotest.(check int) (label "symbols") (Di.view_total_symbols v) (Di.total_symbols restored);
            List.iter
              (fun p ->
                Alcotest.(check (list (pair int int))) (label p) (Di.view_search v p) (Di.search restored p);
                Alcotest.(check int) (label ("#" ^ p)) (Di.view_count v p) (Di.count restored p))
              pats;
            Hashtbl.iter
              (fun d text ->
                let len = String.length text in
                Alcotest.(check (pair bool (option string))) (label (Printf.sprintf "doc %d" d))
                  (Di.view_mem v d, Di.view_extract v ~doc:d ~off:0 ~len)
                  (Di.mem restored d, Di.extract restored ~doc:d ~off:0 ~len))
              texts
          end)
        ops)
    pairs

let suite =
  [ Alcotest.test_case "retention ring bounds + view_at hit/miss" `Quick test_retention_ring;
    Alcotest.test_case "retain_epochs 0 retains nothing" `Quick test_retain_nothing;
    Alcotest.test_case "query ~epoch = trace-prefix replay" `Quick
      test_query_epoch_matches_prefix_replay;
    Alcotest.test_case "pin survives ring eviction" `Quick test_pin_survives_eviction;
    Alcotest.test_case "pin a retained (non-live) epoch" `Quick test_pin_retained_epoch;
    Alcotest.test_case "query ~epoch on a missed epoch raises" `Quick test_query_epoch_invalid;
    Alcotest.test_case "view census = writer census after every op, 9 pairs" `Quick
      test_view_census_is_writer_census;
    Alcotest.test_case "view components round-trip through restore, 9 pairs" `Quick
      test_view_components_round_trip ]
