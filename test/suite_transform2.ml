(* Tests for Transformation 2: worst-case dynamization with locked
   copies, background incremental rebuilds, Temp indexes and top
   collections -- checked against a naive model under heavy churn. *)

open Dsdg_core

module T2 = Transform2.Make (Fm_static)

let config ~sample ~tau = { Index_config.default with sample; tau }

let check = Alcotest.(check int)

(* naive search over live (id, text) pairs, shared with the fuzzer *)
let naive_search = Dsdg_check.Model.occurrences

let rand_doc st max_len =
  let n = Random.State.int st max_len in
  String.init n (fun _ -> Char.chr (97 + Random.State.int st 3))

let test_insert_search () =
  let t = T2.create (config ~sample:2 ~tau:4) in
  let model = Hashtbl.create 16 in
  for i = 0 to 59 do
    let text = Printf.sprintf "payload %d abc" i in
    let id = T2.insert t text in
    Hashtbl.replace model id text
  done;
  check "doc_count" 60 (T2.doc_count t);
  let live = Hashtbl.fold (fun d s acc -> (d, s) :: acc) model [] in
  List.iter
    (fun p ->
      Alcotest.(check (list (pair int int)))
        ("search " ^ p) (naive_search live p) (Epoch_view.matches (T2.view t) p);
      check ("count " ^ p) (List.length (naive_search live p)) (Epoch_view.count (T2.view t) p))
    [ "payload"; "abc"; "5"; "1 abc"; "zz" ]

let test_background_jobs_run () =
  let t = T2.create ~work_factor:4 (config ~sample:2 ~tau:4) in
  for i = 0 to 299 do
    ignore (T2.insert t (Printf.sprintf "document number %d with some padding text" i))
  done;
  let s = T2.stats t in
  Alcotest.(check bool) "jobs started" true (s.Transform2.jobs_started > 0);
  Alcotest.(check bool) "jobs completed" true (s.Transform2.jobs_completed > 0);
  check "count document" 300 (Epoch_view.count (T2.view t) "document");
  (* events were logged *)
  Alcotest.(check bool) "events" true (List.length (T2.events t) > 0)

let test_oversized_doc_becomes_top () =
  let t = T2.create (config ~sample:4 ~tau:4) in
  (* make nf large enough to matter, then add a huge doc *)
  for i = 0 to 49 do
    ignore (T2.insert t (Printf.sprintf "filler doc %d" i))
  done;
  let big = String.make 4000 'q' in
  ignore (T2.insert t big);
  check "count q" 4000 (Epoch_view.count (T2.view t) "q");
  let census = T2.census t in
  Alcotest.(check bool) "some top exists" true
    (List.exists (fun (name, _, _) -> String.length name > 0 && name.[0] = 'T') census)

let test_delete_with_pending_jobs () =
  (* documents deleted while a background rebuild is in flight must not
     resurrect when the job lands *)
  let t = T2.create ~work_factor:1 (config ~sample:2 ~tau:4) in
  let ids = ref [] in
  for i = 0 to 199 do
    ids := T2.insert t (Printf.sprintf "churn document %d" i) :: !ids
  done;
  (* delete half while jobs may be pending *)
  let deleted = ref [] in
  List.iteri
    (fun i id ->
      if i mod 2 = 0 then begin
        Alcotest.(check bool) "delete ok" true (T2.delete t id);
        deleted := id :: !deleted
      end)
    !ids;
  (* force everything to settle by doing more work *)
  for i = 0 to 49 do
    ignore (T2.insert t (Printf.sprintf "settle %d" i))
  done;
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "doc %d stays dead" id) false (Epoch_view.mem (T2.view t) id))
    !deleted;
  check "count churn" 100 (Epoch_view.count (T2.view t) "churn document")

let churn ~ops ~seed ~max_len () =
  let st = Random.State.make [| seed |] in
  let t = T2.create ~work_factor:4 (config ~sample:2 ~tau:4) in
  let model = Hashtbl.create 64 in
  let patterns = [ "a"; "ab"; "ba"; "ca"; "bb" ] in
  let verify step =
    let live = Hashtbl.fold (fun d s acc -> (d, s) :: acc) model [] in
    List.iter
      (fun p ->
        let expected = naive_search live p in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "step %d search %s" step p)
          expected (Epoch_view.matches (T2.view t) p);
        check (Printf.sprintf "step %d count %s" step p) (List.length expected)
          (Epoch_view.count (T2.view t) p))
      patterns
  in
  for step = 1 to ops do
    let roll = Random.State.float st 1.0 in
    if roll < 0.6 || Hashtbl.length model = 0 then begin
      let text = rand_doc st max_len in
      let id = T2.insert t text in
      Hashtbl.replace model id text
    end
    else begin
      let ids = Hashtbl.fold (fun d _ acc -> d :: acc) model [] in
      let id = List.nth ids (Random.State.int st (List.length ids)) in
      Alcotest.(check bool) (Printf.sprintf "delete %d" id) true (T2.delete t id);
      Hashtbl.remove model id
    end;
    if step mod 9 = 0 then verify step
  done;
  verify ops;
  Hashtbl.iter
    (fun id text ->
      Alcotest.(check (option string)) (Printf.sprintf "extract %d" id) (Some text)
        (Epoch_view.extract (T2.view t) ~doc:id ~off:0 ~len:(String.length text)))
    model;
  check "doc_count" (Hashtbl.length model) (T2.doc_count t)

let test_churn_small = churn ~ops:150 ~seed:5 ~max_len:30
let test_churn_bigger_docs = churn ~ops:80 ~seed:6 ~max_len:200

let test_delete_everything () =
  let t = T2.create (config ~sample:2 ~tau:4) in
  let ids = List.init 80 (fun i -> T2.insert t (Printf.sprintf "erase me %d" i)) in
  List.iter (fun id -> Alcotest.(check bool) "del" true (T2.delete t id)) ids;
  check "empty" 0 (T2.doc_count t);
  check "no matches" 0 (Epoch_view.count (T2.view t) "erase")

let test_census_shape () =
  let t = T2.create (config ~sample:4 ~tau:4) in
  for i = 0 to 499 do
    ignore (T2.insert t (Printf.sprintf "census doc %d with padding" i))
  done;
  let census = T2.census t in
  (* C0 always reported; total live symbols must match *)
  Alcotest.(check bool) "has C0" true (List.exists (fun (n, _, _) -> n = "C0") census);
  let live_total = List.fold_left (fun a (_, l, _) -> a + l) 0 census in
  check "census live total" (T2.total_symbols t) live_total

let prop_t2_vs_model =
  QCheck.Test.make ~name:"transform2 agrees with model on random streams" ~count:100
    QCheck.(pair (int_bound 1000) (int_range 30 70))
    (fun (seed, ops) ->
      let st = Random.State.make [| seed; 99 |] in
      let t = T2.create ~work_factor:2 (config ~sample:2 ~tau:4) in
      let model = Hashtbl.create 32 in
      for _ = 1 to ops do
        if Random.State.float st 1.0 < 0.65 || Hashtbl.length model = 0 then begin
          let text = rand_doc st 40 in
          let id = T2.insert t text in
          Hashtbl.replace model id text
        end
        else begin
          let ids = Hashtbl.fold (fun d _ acc -> d :: acc) model [] in
          let id = List.nth ids (Random.State.int st (List.length ids)) in
          ignore (T2.delete t id);
          Hashtbl.remove model id
        end
      done;
      let live = Hashtbl.fold (fun d s acc -> (d, s) :: acc) model [] in
      List.for_all
        (fun p -> Epoch_view.matches (T2.view t) p = naive_search live p)
        [ "a"; "ab"; "ba"; "ca" ])

(* longer soak: 2500 mixed ops with sparse verification -- exercises many
   lock/install cycles, top cleanings and at least one restructure *)
let test_soak () =
  let st = Random.State.make [| 2025 |] in
  let t = T2.create ~work_factor:32 (config ~sample:4 ~tau:8) in
  let model = Hashtbl.create 256 in
  for step = 1 to 2500 do
    if Random.State.float st 1.0 < 0.62 || Hashtbl.length model = 0 then begin
      let text = rand_doc st 120 in
      let id = T2.insert t text in
      Hashtbl.replace model id text
    end
    else begin
      let ids = Hashtbl.fold (fun d _ acc -> d :: acc) model [] in
      let id = List.nth ids (Random.State.int st (List.length ids)) in
      ignore (T2.delete t id);
      Hashtbl.remove model id
    end;
    if step mod 250 = 0 then begin
      let live = Hashtbl.fold (fun d s acc -> (d, s) :: acc) model [] in
      List.iter
        (fun p ->
          check (Printf.sprintf "soak %d count %s" step p)
            (List.length (naive_search live p))
            (Epoch_view.count (T2.view t) p))
        [ "ab"; "ca" ]
    end
  done;
  check "soak doc_count" (Hashtbl.length model) (T2.doc_count t);
  let s = T2.stats t in
  Alcotest.(check bool) "soak exercised jobs" true (s.Transform2.jobs_completed > 20);
  Alcotest.(check bool) "soak exercised cleaning" true (s.Transform2.top_cleanings > 0)

(* Forced completions must be accounted exactly once each and feed
   max_job_step: with a starvation-level work budget nearly every lock
   forces its job synchronously. *)
let test_forced_accounting () =
  let t = T2.create ~work_factor:1 (config ~sample:2 ~tau:4) in
  let i = ref 0 in
  while (T2.stats t).Transform2.forced = 0 && !i < 2000 do
    ignore (T2.insert t (Printf.sprintf "forced accounting doc %d with some filler" !i));
    incr i
  done;
  let s = T2.stats t in
  Alcotest.(check bool) "a force occurred" true (s.Transform2.forced > 0);
  Alcotest.(check bool) "max_job_step recorded" true (s.Transform2.max_job_step > 0);
  Alcotest.(check bool) "forced counted once per completion" true
    (s.Transform2.forced <= s.Transform2.jobs_completed);
  Alcotest.(check bool) "completions bounded by starts" true
    (s.Transform2.jobs_completed <= s.Transform2.jobs_started)

(* A failed delete (unknown or already-deleted id) must not mutate any
   counter or structure state. *)
let test_failed_delete_no_mutation () =
  let t = T2.create (config ~sample:2 ~tau:4) in
  let ids = List.init 30 (fun i -> T2.insert t (Printf.sprintf "hold doc %d" i)) in
  let victim = List.nth ids 3 in
  Alcotest.(check bool) "first delete" true (T2.delete t victim);
  let s0 = T2.stats t and d0 = T2.doc_count t and y0 = T2.total_symbols t in
  Alcotest.(check bool) "double delete" false (T2.delete t victim);
  Alcotest.(check bool) "unknown delete" false (T2.delete t 424242);
  let s1 = T2.stats t in
  check "doc_count unchanged" d0 (T2.doc_count t);
  check "symbols unchanged" y0 (T2.total_symbols t);
  Alcotest.(check bool) "stats unchanged" true (s0 = s1);
  check "count intact" 29 (Epoch_view.count (T2.view t) "hold doc")

(* Regression: a document that currently lives in a locked copy L_j
   (its rebuild job still in flight) must remain fully extractable. *)
let test_extract_from_locked_copy () =
  let t = T2.create ~work_factor:1 (config ~sample:2 ~tau:4) in
  let model = Hashtbl.create 64 in
  let checked_mid_rebuild = ref 0 in
  for i = 0 to 249 do
    let text = Printf.sprintf "locked copy probe %d with padding text" i in
    let id = T2.insert t text in
    Hashtbl.replace model id text;
    let locked_live =
      List.exists (fun (n, _, _) -> String.length n > 0 && n.[0] = 'L') (T2.census t)
    in
    if locked_live && i mod 10 = 0 then begin
      incr checked_mid_rebuild;
      Hashtbl.iter
        (fun id text ->
          Alcotest.(check (option string))
            (Printf.sprintf "extract %d mid-rebuild" id)
            (Some text)
            (Epoch_view.extract (T2.view t) ~doc:id ~off:0 ~len:(String.length text));
          Alcotest.(check (option string))
            (Printf.sprintf "extract %d tail mid-rebuild" id)
            (Some (String.sub text 7 8))
            (Epoch_view.extract (T2.view t) ~doc:id ~off:7 ~len:8))
        model
    end
  done;
  Alcotest.(check bool) "locked copies were actually observed" true (!checked_mid_rebuild > 0)


(* The rebuild schedule is a function of the update stream alone: a
   seeded delete+insert stream (jobs = 0) must produce the same census
   after every update, and the same scheduling counters, as the
   reference values below.  A change to how components are read or
   built that moves when a job starts or lands changes the hash. *)
let schedule_lock_stream () =
  let t = T2.create (config ~sample:8 ~tau:8) in
  let st = Random.State.make [| 0x5c4e |] in
  let doc () = String.init 100 (fun _ -> Char.chr (97 + Random.State.int st 20)) in
  let live = Array.init 400 (fun _ -> T2.insert t (doc ())) in
  let h = ref (Digest.string "") in
  let step () =
    let census =
      List.map (fun (name, l, d) -> Printf.sprintf "%s:%d:%d" name l d) (T2.census t)
    in
    h := Digest.string (Digest.to_hex !h ^ String.concat "," census)
  in
  for _ = 1 to 2500 do
    let k = Random.State.int st (Array.length live) in
    ignore (T2.delete t live.(k));
    step ();
    live.(k) <- T2.insert t (doc ());
    step ()
  done;
  let s = T2.stats t in
  ( Digest.to_hex !h,
    [ s.Transform2.jobs_started; s.jobs_completed; s.forced; s.restructures; s.top_cleanings;
      s.sync_merges ] )

let test_schedule_lock () =
  let hash, counts = schedule_lock_stream () in
  Alcotest.(check string) "census hash after every update" "2a9f08aa82b6a9da4f02014b2b72897d" hash;
  Alcotest.(check (list int))
    "started, completed, forced, restructures, top cleanings, sync merges"
    [ 1628; 1627; 7; 6; 384; 108 ] counts

(* --- bounded top collections: cleanings merge small tops --- *)

module Di = Dynamic_index

(* perfbench's churn shape: documents of 100 symbols over 20 letters *)
let churn_doc st = String.init 100 (fun _ -> Char.chr (97 + Random.State.int st 20))

let model_docs model = Hashtbl.fold (fun d s acc -> (d, s) :: acc) model []

(* Every live document comes back exactly once: the counts agree, each
   document is present with its text, and pattern counts (which would
   double a duplicated document) match the model. *)
let check_against_model label idx model =
  let live = model_docs model in
  check (label ^ ": doc_count") (List.length live) (Di.doc_count idx);
  check (label ^ ": total_symbols")
    (List.fold_left (fun a (_, s) -> a + String.length s + 1) 0 live)
    (Di.total_symbols idx);
  List.iter
    (fun (d, s) ->
      Alcotest.(check (option string))
        (Printf.sprintf "%s: doc %d" label d)
        (Some s)
        (Di.extract idx ~doc:d ~off:0 ~len:(String.length s)))
    live;
  List.iter
    (fun p -> check (Printf.sprintf "%s: count %s" label p) (List.length (naive_search live p)) (Di.count idx p))
    [ "ab"; "ca"; "tsr"; "q" ]

(* Stationary churn at jobs = 0: delete a random live document, insert a
   fresh one.  Without the merge rule the layout drifts to dozens of
   near-empty tops; with it the Oracle's top-count bound (2 tau + 2)
   holds at every check.  Fuzz streams are too short to drift. *)
let test_long_churn_top_bound () =
  let idx = Di.create ~index:{ Index_config.default with sample = 8; tau = 8 } () in
  let oracle = Dsdg_check.Oracle.create () in
  let st = Random.State.make [| 0x70b5 |] in
  let model = Hashtbl.create 1024 in
  let live =
    Array.init 800 (fun _ ->
        let s = churn_doc st in
        let id = Di.insert idx s in
        Hashtbl.replace model id s;
        id)
  in
  let ops = ref 0 in
  let tick () =
    incr ops;
    if !ops mod 50 = 0 then
      Alcotest.(check (list string))
        (Printf.sprintf "oracle after op %d" !ops)
        [] (Dsdg_check.Oracle.check oracle idx)
  in
  for _ = 1 to 4000 do
    let k = Random.State.int st (Array.length live) in
    Alcotest.(check bool) "delete" true (Di.delete idx live.(k));
    Hashtbl.remove model live.(k);
    tick ();
    let s = churn_doc st in
    live.(k) <- Di.insert idx s;
    Hashtbl.replace model live.(k) s;
    tick ()
  done;
  let tops =
    List.length (List.filter (fun (n, _, _) -> n.[0] = 'T' && n.[1] <> 'e') (Di.probe idx).pr_census)
  in
  Alcotest.(check bool) (Printf.sprintf "%d tops <= 2 tau + 2" tops) true (tops <= 18);
  check_against_model "after churn" idx model

(* The newest event about a cleaning says whether a merged one is in
   flight: its start names the merged tops, its install lands it. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let merged_cleaning_in_flight events =
  match List.find_opt (fun e -> contains e "rebuilt T") events with
  | Some e -> String.starts_with ~prefix:"job start:" e && contains e "merging"
  | None -> false

(* A dump taken while a merged cleaning is in flight restores every live
   document exactly once, with the same query answers: the tops being
   merged stay in place (and in the dump) until the job installs. *)
let test_restore_mid_merged_cleaning () =
  let index = { Index_config.default with sample = 8; tau = 4 } in
  let idx = Di.create ~index () in
  let st = Random.State.make [| 0xd0c5 |] in
  let model = Hashtbl.create 512 in
  let live =
    Array.init 300 (fun _ ->
        let s = churn_doc st in
        let id = Di.insert idx s in
        Hashtbl.replace model id s;
        id)
  in
  let restored = ref 0 and step = ref 0 in
  while !restored < 3 && !step < 6000 do
    incr step;
    let k = Random.State.int st (Array.length live) in
    ignore (Di.delete idx live.(k));
    Hashtbl.remove model live.(k);
    if merged_cleaning_in_flight (Di.events idx) then begin
      incr restored;
      let label = Printf.sprintf "restore %d (step %d)" !restored !step in
      let back = Di.restore ~index (Di.dump idx) in
      check_against_model label back model;
      Alcotest.(check (list string)) (label ^ ": oracle") [] (Dsdg_check.Oracle.check (Dsdg_check.Oracle.create ()) back)
    end;
    let s = churn_doc st in
    live.(k) <- Di.insert idx s;
    Hashtbl.replace model live.(k) s
  done;
  Alcotest.(check bool) "merged cleanings were caught in flight" true (!restored = 3)

(* Pooled mode (jobs = 1): whenever C0 is locked into L0, half of L0's
   documents are deleted while its rebuild job is in flight (the job
   body reads L0's map on the worker, before or after those deletes),
   then [drain] lands everything.  The index must equal the model and
   the Oracle must hold after every op. *)
let test_pooled_l0_deletes () =
  let idx = Di.create ~index:{ Index_config.default with sample = 8; tau = 4; jobs = 1 } () in
  let oracle = Dsdg_check.Oracle.create () in
  let check_oracle label = Alcotest.(check (list string)) label [] (Dsdg_check.Oracle.check oracle idx) in
  let st = Random.State.make [| 0x10c0 |] in
  let model = Hashtbl.create 256 in
  let census () = (Di.probe idx).pr_census in
  let c0_live () = match List.find_opt (fun (n, _, _) -> n = "C0") (census ()) with Some (_, l, _) -> l | None -> 0 in
  let has_l0 () = List.exists (fun (n, _, _) -> n = "L0") (census ()) in
  let c0 = ref [] and locks = ref 0 and l0_deletes = ref 0 in
  for _ = 1 to 400 do
    let before = c0_live () and locked_before = has_l0 () in
    let s = String.init 20 (fun _ -> Char.chr (97 + Random.State.int st 20)) in
    let id = Di.insert idx s in
    Hashtbl.replace model id s;
    check_oracle "oracle after insert";
    if c0_live () = before + 21 then c0 := id :: !c0
    else if has_l0 () && not locked_before then begin
      incr locks;
      List.iteri
        (fun i d ->
          if i mod 2 = 0 && has_l0 () then begin
            incr l0_deletes;
            Alcotest.(check bool) (Printf.sprintf "delete L0 doc %d" d) true (Di.delete idx d);
            Hashtbl.remove model d;
            check_oracle "oracle after L0 delete"
          end)
        !c0;
      c0 := []
    end
  done;
  Di.drain idx;
  check_oracle "oracle after drain";
  check "no job in flight after drain" 0 (Di.probe idx).pr_pending_jobs;
  check_against_model "after drain" idx model;
  Di.close idx;
  Alcotest.(check bool) "C0 was locked into L0" true (!locks > 0);
  Alcotest.(check bool) "L0 documents were deleted in flight" true (!l0_deletes > 0)

(* A static index whose bulk decode fails on every worker domain: each
   pooled rebuild dies, and the owner rebuilds it in place from the
   same closure (the crash fallback). *)
module Flaky = struct
  include Fm_static

  let owner = Domain.self ()

  let docs ?tick t =
    if Domain.self () <> owner then failwith "flaky worker decode";
    Fm_static.docs ?tick t
end

module T2_flaky = Transform2.Make (Flaky)

(* Merged cleanings at jobs = 1 whose worker dies land through the crash
   fallback without losing a document. *)
let test_merged_cleaning_crash_fallback () =
  let t = T2_flaky.create { Index_config.default with sample = 8; tau = 4; jobs = 1 } in
  let st = Random.State.make [| 0xfa11 |] in
  let model = Hashtbl.create 512 in
  let live =
    Array.init 300 (fun _ ->
        let s = churn_doc st in
        let id = T2_flaky.insert t s in
        Hashtbl.replace model id s;
        id)
  in
  let merged = ref 0 in
  for _ = 1 to 1500 do
    let k = Random.State.int st (Array.length live) in
    ignore (T2_flaky.delete t live.(k));
    Hashtbl.remove model live.(k);
    if merged_cleaning_in_flight (T2_flaky.events t) then incr merged;
    let s = churn_doc st in
    live.(k) <- T2_flaky.insert t s;
    Hashtbl.replace model live.(k) s
  done;
  T2_flaky.close t;
  let s = T2_flaky.stats t in
  Alcotest.(check bool) "merged cleanings ran" true (!merged > 0);
  Alcotest.(check bool) "workers crashed into the fallback" true (s.Transform2.crash_fallbacks > 0);
  let docs = model_docs model in
  check "doc_count" (List.length docs) (T2_flaky.doc_count t);
  List.iter
    (fun (d, text) ->
      Alcotest.(check (option string)) (Printf.sprintf "doc %d" d) (Some text)
        (Epoch_view.extract (T2_flaky.view t) ~doc:d ~off:0 ~len:(String.length text)))
    docs;
  List.iter
    (fun p ->
      check ("count " ^ p) (List.length (naive_search docs p)) (Epoch_view.count (T2_flaky.view t) p))
    [ "ab"; "ca"; "tsr" ]

let qsuite = List.map Qc.to_alcotest [ prop_t2_vs_model ]

let suite =
  [ ("insert & search", `Quick, test_insert_search);
    ("background jobs run", `Quick, test_background_jobs_run);
    ("oversized doc becomes top", `Quick, test_oversized_doc_becomes_top);
    ("deletes with pending jobs", `Quick, test_delete_with_pending_jobs);
    ("churn small docs", `Quick, test_churn_small);
    ("churn bigger docs", `Quick, test_churn_bigger_docs);
    ("delete everything", `Quick, test_delete_everything);
    ("census shape", `Quick, test_census_shape);
    ("forced-completion accounting", `Quick, test_forced_accounting);
    ("failed delete mutates nothing", `Quick, test_failed_delete_no_mutation);
    ("extract from locked copy mid-rebuild", `Quick, test_extract_from_locked_copy);
    ("soak 2500 ops", `Slow, test_soak) ]
  @ qsuite
  @ [ ("schedule lock", `Quick, test_schedule_lock);
      ("long churn keeps the top bound", `Quick, test_long_churn_top_bound);
      ("restore mid merged cleaning", `Quick, test_restore_mid_merged_cleaning);
      ("pooled L0 deletes then drain", `Quick, test_pooled_l0_deletes);
      ("merged cleaning crash fallback", `Quick, test_merged_cleaning_crash_fallback) ]
