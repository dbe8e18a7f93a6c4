(* Differential checking suite (lib/check wired into dune runtest):
   bounded fuzz streams across the variant x backend matrix, unit tests
   for the trace / opgen / shrink machinery, and a planted-fault
   self-test proving the harness catches real scheduling bugs.

   Budget knobs for nightly CI: FUZZ_STREAMS, FUZZ_OPS, FUZZ_SEED;
   DSDG_JOBS (default 0 = deterministic Sync executor) reruns the whole
   matrix with pooled background rebuilds; DSDG_READERS (default 0 =
   queries on the caller's domain) reruns it with every query routed
   through a reader pool against the latest published epoch. *)

open Dsdg_check
module DI = Dsdg_core.Dynamic_index

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)

let base_seed = env_int "FUZZ_SEED" 42
let n_streams = env_int "FUZZ_STREAMS" 200
let ops_per_stream = env_int "FUZZ_OPS" 60
let jobs = env_int "DSDG_JOBS" 0
let readers = env_int "DSDG_READERS" 0

(* Index settings over the fuzz harnesses' defaults. *)
let fuzz_index = Runner.fuzz_index
let base_index = { fuzz_index with jobs; readers }

(* On failure, print everything needed to reproduce without rerunning
   the suite: the seed, the saved minimal trace and the replay command. *)
let fail_stream ~seed ~failure ~shrunk =
  let path = Filename.temp_file "dsdg-fuzz-runtest" ".trace" in
  Trace.save path shrunk;
  let variant, backend =
    match String.index_opt failure.Runner.f_target '/' with
    | Some i ->
      ( String.sub failure.Runner.f_target 0 i,
        String.sub failure.Runner.f_target (i + 1)
          (String.length failure.Runner.f_target - i - 1) )
    | None -> ("all", "all")
  in
  Alcotest.failf "%strace saved to %s\nreplay: dsdg fuzz --replay %s --variant %s --backend %s"
    (Runner.report ~seed ~show:Trace.op_to_string ~failure ~shrunk ())
    path path variant backend

(* The bulk run: each stream drives one variant x backend pair
   (round-robin over all nine) so the whole matrix is covered every
   nine streams; every third stream uses the delete-heavy profile. *)
let test_fuzz_matrix () =
  let n_targets = List.length Runner.all_targets in
  for i = 0 to n_streams - 1 do
    let seed = base_seed + i in
    let targets = [ List.nth Runner.all_targets (i mod n_targets) ] in
    let profile = if i mod 3 = 2 then Opgen.churny else Opgen.default in
    match
      Runner.run_stream ~profile ~seed ~ops:ops_per_stream
        (Runner.subjects ~index:base_index targets)
    with
    | Runner.Pass -> ()
    | Runner.Fail { failure; shrunk; _ } -> fail_stream ~seed ~failure ~shrunk
  done

(* A few streams against all nine targets at once: cross-structure
   disagreement (not just structure vs model) is only visible here. *)
let test_fuzz_cross_targets () =
  for i = 0 to 2 do
    let seed = base_seed + 1000 + i in
    match
      Runner.run_stream ~seed ~ops:(2 * ops_per_stream)
        (Runner.subjects ~index:base_index Runner.all_targets)
    with
    | Runner.Pass -> ()
    | Runner.Fail { failure; shrunk; _ } -> fail_stream ~seed ~failure ~shrunk
  done

(* Every index setting survives the trace-hint header: a config with
   each field moved off the default saves, reloads and parses back to
   itself, and a header written before the config existed still reads. *)
let test_index_config_hint () =
  let module C = Dsdg_core.Index_config in
  let base = C.default in
  let moved =
    {
      base with
      C.sample = 3;
      tau = 5;
      fault = Some `Stale_epoch;
      jobs = 2;
      readers = 1;
    }
  in
  let path = Filename.temp_file "dsdg-config-hint" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let fields = C.to_hint ~base moved in
  Alcotest.(check int) "one field per hinted setting" 5 (List.length fields);
  Alcotest.(check int) "shape and retention are not hinted" 0
    (List.length
       (C.to_hint ~base
          { base with variant = C.Amortized_loglog; backend = C.Csa; retain_epochs = 7 }));
  Trace.save ~hint:{ Trace.no_hint with h_shards = Some 3; h_index = fields } path
    [ Trace.Insert "x" ];
  let h = Result.get_ok (Trace.load_hint path) in
  Alcotest.(check (option int)) "shards" (Some 3) h.Trace.h_shards;
  Alcotest.(check bool) "config round-trips" true (C.of_hint ~base h.Trace.h_index = Ok moved);
  Alcotest.(check int) "a matching config has no mismatches" 0
    (List.length (Result.get_ok (C.mismatches h.Trace.h_index moved)));
  Alcotest.(check int) "the default mismatches every field" 5
    (List.length (Result.get_ok (C.mismatches h.Trace.h_index base)));
  Alcotest.(check bool) "a malformed value names its key" true
    (C.of_hint ~base [ ("sample", "2"); ("tau", "abc") ] = Error "tau=abc");
  Alcotest.(check int) "defaults need no hint" 0 (List.length (C.to_hint ~base base));
  (* the retired seq= key is ignored like any unknown key *)
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "% requires shards=2 readers=1 seq=spsi\n+ \"x\"\n");
  let h = Result.get_ok (Trace.load_hint path) in
  Alcotest.(check (option int)) "old-style shards" (Some 2) h.Trace.h_shards;
  Alcotest.(check bool) "old-style readers" true
    (C.of_hint ~base h.Trace.h_index = Ok { base with readers = 1 });
  Out_channel.with_open_bin path (fun oc -> output_string oc "% requires shards=two\n");
  Alcotest.(check bool) "a malformed shards value names its key" true
    (Trace.load_hint path = Error "shards=two")

(* --- machinery unit tests --- *)

let test_trace_roundtrip () =
  let ops =
    [ Trace.Insert "plain";
      Trace.Insert "";
      Trace.Insert "with \"quotes\" and \\ and \n newline";
      Trace.Delete 3;
      Trace.Search "ab\"cd";
      Trace.Count "";
      Trace.Extract { doc = 2; off = 0; len = 5 };
      Trace.Mem 17;
      Trace.Drain ]
  in
  let reparsed = List.map (fun op -> Trace.op_of_string (Trace.op_to_string op)) ops in
  Alcotest.(check bool) "to_string/of_string round-trips" true (reparsed = ops);
  let path = Filename.temp_file "dsdg-trace" ".trace" in
  Trace.save path ops;
  let loaded = Trace.load path in
  Sys.remove path;
  Alcotest.(check bool) "save/load round-trips" true (loaded = ops)

(* parse_op (op_to_string op) = Ok op for random ops: texts over a
   byte mix that includes quotes, backslashes, newlines and high bytes
   (so op_to_string escapes them), the empty text, and ids of every
   size and sign. *)
let prop_trace_op_roundtrip =
  let text =
    QCheck.Gen.(
      string_size
        ~gen:(frequency [ (6, char_range 'a' 'e'); (1, oneofl [ '"'; '\\'; '\n'; ' '; '\t'; '\255'; '\000' ]) ])
        (0 -- 12))
  in
  let id = QCheck.Gen.(oneof [ small_signed_int; int; oneofl [ min_int; max_int; 0; -1 ] ]) in
  let op =
    QCheck.Gen.(
      frequency
        [ (4, map (fun t -> Trace.Insert t) text);
          (4, map (fun i -> Trace.Delete i) id);
          (1, map (fun t -> Trace.Search t) text);
          (1, map (fun t -> Trace.Count t) text);
          (1, map3 (fun doc off len -> Trace.Extract { doc; off; len }) id small_nat small_nat);
          (1, map (fun i -> Trace.Mem i) id);
          (1, return Trace.Drain) ])
  in
  QCheck.Test.make ~name:"trace parse_op (op_to_string op) = Ok op" ~count:1000
    (QCheck.make ~print:Trace.op_to_string op)
    (fun op -> Trace.parse_op (Trace.op_to_string op) = Ok op)

(* The decoder for '+' and '-' records answers as [Scanf] does -- op or
   error reason -- on near-miss lines too: missing or doubled spaces,
   text after the closing quote, escapes, signs, long digit runs. *)
let prop_trace_parse_matches_scanf =
  let scanf line =
    let scan fmt k ~expect =
      try Ok (Scanf.sscanf line fmt k) with Scanf.Scan_failure _ | End_of_file | Failure _ -> Error expect
    in
    match line.[0] with
    | '+' -> scan "+ %S" (fun s -> Trace.Insert s) ~expect:"expected a quoted document after '+'"
    | _ -> scan "- %d" (fun id -> Trace.Delete id) ~expect:"expected a document id after '-'"
  in
  let piece =
    QCheck.Gen.oneofl
      [ " "; "  "; "\""; "\\"; "\\n"; "\\\""; "a"; "bc"; "-"; "+"; "0"; "7"; "123456789"; "_"; "x"; "\t" ]
  in
  let line =
    QCheck.Gen.(
      map2 (fun op rest -> op ^ String.concat "" rest) (oneofl [ "+"; "-"; "+ \""; "- "; "- -" ]) (list_size (0 -- 8) piece))
  in
  QCheck.Test.make ~name:"trace '+'/'-' decoding = Scanf" ~count:2000 (QCheck.make ~print:(Printf.sprintf "%S") line)
    (fun line -> String.length line < 2 || Trace.parse_op line = scanf line)

let test_opgen_deterministic () =
  let a = Opgen.generate ~seed:7 ~ops:300 () in
  let b = Opgen.generate ~seed:7 ~ops:300 () in
  let c = Opgen.generate ~seed:8 ~ops:300 () in
  Alcotest.(check int) "requested length" 300 (List.length a);
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  Alcotest.(check bool) "different seed, different stream" true (a <> c)

let test_opgen_adversarial_cases () =
  (* the generator must actually produce its advertised edge cases *)
  let ops = Opgen.generate ~seed:11 ~ops:4000 () in
  let inserts = List.filter_map (function Trace.Insert s -> Some s | _ -> None) ops in
  Alcotest.(check bool) "empty docs appear" true (List.exists (fun s -> s = "") inserts);
  Alcotest.(check bool) "oversized docs appear" true
    (List.exists (fun s -> String.length s >= 256) inserts);
  let tbl = Hashtbl.create 64 in
  let dup = ref false in
  List.iter
    (fun s ->
      if s <> "" then begin
        if Hashtbl.mem tbl s then dup := true;
        Hashtbl.replace tbl s ()
      end)
    inserts;
  Alcotest.(check bool) "duplicate texts appear" true !dup;
  Alcotest.(check bool) "deletes appear" true
    (List.exists (function Trace.Delete _ -> true | _ -> false) ops)

let test_model_semantics () =
  let m = Model.create () in
  let a = Model.insert m "banana" in
  let b = Model.insert m "bandana" in
  Alcotest.(check int) "sequential ids" 1 b;
  Alcotest.(check (list (pair int int))) "search"
    [ (a, 1); (a, 3); (b, 1); (b, 4) ]
    (Model.search m "an");
  Alcotest.(check int) "count" 4 (Model.count m "an");
  Alcotest.(check (option string)) "extract" (Some "nan") (Model.extract m ~doc:a ~off:2 ~len:3);
  Alcotest.(check (option string)) "extract out of range" None (Model.extract m ~doc:a ~off:4 ~len:5);
  Alcotest.(check bool) "delete" true (Model.delete m a);
  Alcotest.(check bool) "delete twice" false (Model.delete m a);
  Alcotest.(check (option string)) "extract dead" None (Model.extract m ~doc:a ~off:0 ~len:1);
  Alcotest.(check int) "doc_count" 1 (Model.doc_count m);
  Alcotest.(check int) "total_symbols" 8 (Model.total_symbols m)

(* Plant the skip-top-clean fault and demand the whole pipeline works:
   the schedule oracle trips, the trace shrinks, the minimal trace
   replays to a failure with the fault and runs clean without it. *)
let test_planted_fault_caught () =
  let index = { fuzz_index with fault = Some `Skip_top_clean } in
  let targets = Runner.select_targets ~variant:"worst-case" ~backend:"fm" () in
  let rec hunt seed =
    if seed > base_seed + 9 then
      Alcotest.fail "planted skip-top-clean fault never caught in 10 churny streams"
    else
      match
        Runner.run_stream ~profile:Opgen.churny ~seed ~ops:600 (Runner.subjects ~index targets)
      with
      | Runner.Pass -> hunt (seed + 1)
      | Runner.Fail { failure = _; shrunk; trace } ->
        Alcotest.(check bool) "shrunk trace nonempty" true (shrunk <> []);
        Alcotest.(check bool) "shrinking did not grow the trace" true
          (List.length shrunk <= List.length trace);
        let path = Filename.temp_file "dsdg-fault" ".trace" in
        Trace.save path shrunk;
        let reloaded = Trace.load path in
        Sys.remove path;
        Alcotest.(check bool) "minimal trace round-trips" true (reloaded = shrunk);
        (match Runner.run_trace (Runner.subjects ~index targets) reloaded with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "replayed minimal trace no longer fails under the fault");
        (match Runner.run_trace (Runner.subjects targets) reloaded with
        | Ok () -> ()
        | Error f ->
          Alcotest.failf "minimal trace fails even without the fault: %s" f.Runner.f_message)
  in
  hunt base_seed

(* Transformation 3 smoke: bounded streams pinned to the loglog
   (doubling-schedule) variant across every backend, so tier-1 always
   differentially checks T3 directly even when FUZZ_STREAMS trims the
   round-robin matrix below full coverage. *)
let test_fuzz_t3_streams () =
  List.iteri
    (fun i backend ->
      let targets = Runner.select_targets ~variant:"loglog" ~backend () in
      for j = 0 to 9 do
        let seed = base_seed + 4000 + (100 * i) + j in
        let profile = if j mod 3 = 2 then Opgen.churny else Opgen.default in
        match
          Runner.run_stream ~profile ~seed ~ops:ops_per_stream
            (Runner.subjects ~index:base_index targets)
        with
        | Runner.Pass -> ()
        | Runner.Fail { failure; shrunk; _ } -> fail_stream ~seed ~failure ~shrunk
      done)
    [ "fm"; "sa"; "csa" ]

(* Pooled executor smoke: a bounded batch of streams with worker
   domains on, regardless of DSDG_JOBS, so tier-1 always exercises the
   background-rebuild path (round-robin over the matrix). *)
let test_fuzz_pooled_smoke () =
  let index = { fuzz_index with jobs = max 1 jobs } in
  let n_targets = List.length Runner.all_targets in
  for i = 0 to 19 do
    let seed = base_seed + 2000 + i in
    let targets = [ List.nth Runner.all_targets (i mod n_targets) ] in
    let profile = if i mod 3 = 2 then Opgen.churny else Opgen.default in
    match Runner.run_stream ~profile ~seed ~ops:ops_per_stream (Runner.subjects ~index targets) with
    | Runner.Pass -> ()
    | Runner.Fail { failure; shrunk; _ } -> fail_stream ~seed ~failure ~shrunk
  done

(* Plant the worker-crash fault (a pooled rebuild dies and its result is
   dropped instead of recovered) and demand the full catch -> shrink ->
   replay pipeline works, exactly as for the scheduling fault above. *)
let test_planted_worker_crash_caught () =
  let index = { fuzz_index with fault = Some `Worker_crash; jobs = 1 } in
  let clean_index = { fuzz_index with jobs = 1 } in
  let targets = Runner.select_targets ~variant:"worst-case" ~backend:"fm" () in
  let rec hunt seed =
    if seed > base_seed + 9 then
      Alcotest.fail "planted worker-crash fault never caught in 10 streams"
    else
      match Runner.run_stream ~seed ~ops:300 (Runner.subjects ~index targets) with
      | Runner.Pass -> hunt (seed + 1)
      | Runner.Fail { failure = _; shrunk; trace } ->
        Alcotest.(check bool) "shrunk trace nonempty" true (shrunk <> []);
        Alcotest.(check bool) "shrinking did not grow the trace" true
          (List.length shrunk <= List.length trace);
        (match Runner.run_trace (Runner.subjects ~index targets) shrunk with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "replayed minimal trace no longer fails under the fault");
        (match Runner.run_trace (Runner.subjects ~index:clean_index targets) shrunk with
        | Ok () -> ()
        | Error f ->
          Alcotest.failf "minimal trace fails even without the fault: %s" f.Runner.f_message)
  in
  hunt base_seed

(* Reader-routed smoke: a bounded batch of streams with every query op
   served from a reader-pool domain against the latest published epoch,
   regardless of DSDG_READERS, so tier-1 always differentially checks
   the read plane itself (round-robin over the matrix). *)
let test_fuzz_readers_smoke () =
  let index = { fuzz_index with readers = max 1 readers } in
  let n_targets = List.length Runner.all_targets in
  for i = 0 to 19 do
    let seed = base_seed + 3000 + i in
    let targets = [ List.nth Runner.all_targets (i mod n_targets) ] in
    let profile = if i mod 3 = 2 then Opgen.churny else Opgen.default in
    match Runner.run_stream ~profile ~seed ~ops:ops_per_stream (Runner.subjects ~index targets) with
    | Runner.Pass -> ()
    | Runner.Fail { failure; shrunk; _ } -> fail_stream ~seed ~failure ~shrunk
  done

(* Plant the stale-epoch fault (successful deletes mutate the write
   plane but skip epoch publication, so published views silently go
   stale). Every query reads the published view, so the defect must be
   caught, shrunk and deterministically replayable with readers >= 1,
   and the shrunk trace must also be caught without readers. *)
let test_planted_stale_epoch_caught () =
  let index = { fuzz_index with fault = Some `Stale_epoch; readers = 1 } in
  let clean_index = { fuzz_index with readers = 1 } in
  let readerless_index = { fuzz_index with fault = Some `Stale_epoch } in
  let targets = Runner.select_targets ~variant:"worst-case" ~backend:"fm" () in
  let rec hunt seed =
    if seed > base_seed + 9 then
      Alcotest.fail "planted stale-epoch fault never caught in 10 churny streams"
    else
      match
        Runner.run_stream ~profile:Opgen.churny ~seed ~ops:300 (Runner.subjects ~index targets)
      with
      | Runner.Pass -> hunt (seed + 1)
      | Runner.Fail { failure = _; shrunk; trace } ->
        Alcotest.(check bool) "shrunk trace nonempty" true (shrunk <> []);
        Alcotest.(check bool) "shrinking did not grow the trace" true
          (List.length shrunk <= List.length trace);
        (match Runner.run_trace (Runner.subjects ~index targets) shrunk with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "replayed minimal trace no longer fails under the fault");
        (match Runner.run_trace (Runner.subjects ~index:clean_index targets) shrunk with
        | Ok () -> ()
        | Error f ->
          Alcotest.failf "minimal trace fails even without the fault: %s" f.Runner.f_message);
        match Runner.run_trace (Runner.subjects ~index:readerless_index targets) shrunk with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "stale-epoch fault not also caught without readers"
  in
  hunt base_seed

(* Sync (jobs = 0) and pooled (jobs = 2) instances fed the same op
   stream must answer every query identically -- directly, not only via
   the model. *)
let test_sync_vs_pooled_equivalence () =
  let ops = Opgen.generate ~seed:(base_seed + 77) ~ops:300 () in
  let mk jobs = DI.create ~index:{ fuzz_index with variant = DI.Worst_case; jobs } () in
  let a = mk 0 and b = mk 2 in
  Fun.protect ~finally:(fun () -> DI.close a; DI.close b) @@ fun () ->
  let cap f = try Ok (f ()) with Invalid_argument _ -> Error `Rejected in
  List.iteri
    (fun i op ->
      let ctx fmt = Printf.sprintf ("op %d: " ^^ fmt) i in
      (match op with
      | Trace.Insert s ->
        Alcotest.(check int) (ctx "insert id") (DI.insert a s) (DI.insert b s)
      | Trace.Delete id ->
        Alcotest.(check bool) (ctx "delete %d" id) (DI.delete a id) (DI.delete b id)
      | Trace.Search p ->
        Alcotest.(check bool) (ctx "search %S" p) true
          (cap (fun () -> DI.search a p) = cap (fun () -> DI.search b p))
      | Trace.Count p ->
        Alcotest.(check bool) (ctx "count %S" p) true
          (cap (fun () -> DI.count a p) = cap (fun () -> DI.count b p))
      | Trace.Extract { doc; off; len } ->
        Alcotest.(check (option string)) (ctx "extract %d %d %d" doc off len)
          (DI.extract a ~doc ~off ~len) (DI.extract b ~doc ~off ~len)
      | Trace.Mem id -> Alcotest.(check bool) (ctx "mem %d" id) (DI.mem a id) (DI.mem b id)
      | Trace.Drain ->
        DI.drain a;
        DI.drain b);
      Alcotest.(check int) (ctx "doc_count") (DI.doc_count a) (DI.doc_count b);
      Alcotest.(check int) (ctx "total_symbols") (DI.total_symbols a) (DI.total_symbols b))
    ops

(* --- relation differential streams (Rel_check) --- *)

let test_rel_rop_roundtrip () =
  let ops =
    [ Rel_check.Radd (3, 5); Rel_check.Rremove (0, 600); Rel_check.Rrelated (7, 7);
      Rel_check.Rsucc 12; Rel_check.Rpred 0; Rel_check.Rpairs ]
  in
  List.iter
    (fun op ->
      let line = Rel_check.rop_to_string op in
      Alcotest.(check bool) line true (Rel_check.parse_rop line = Ok op))
    ops;
  List.iter
    (fun bad -> Alcotest.(check bool) bad true (Result.is_error (Rel_check.parse_rop bad)))
    [ ""; "> 1"; "< x y"; "* 3"; "? 1 2" ];
  (* file round-trip with the rel= marker header *)
  let path = Filename.temp_file "dsdg-rel-trace" ".trace" in
  Rel_check.save path ops;
  let hint = Result.get_ok (Trace.load_hint path) in
  Alcotest.(check bool) "rel marker" true hint.Trace.h_rel;
  let reloaded = Rel_check.load path in
  Sys.remove path;
  Alcotest.(check bool) "ops round-trip" true (reloaded = ops);
  (* any rel= value marks a relation trace: older traces named a backend *)
  List.iter
    (fun (header, is_rel) ->
      let path = Filename.temp_file "dsdg-rel-old" ".trace" in
      Out_channel.with_open_text path (fun oc -> output_string oc (header ^ "\n> 1 2\n"));
      let hint = Result.get_ok (Trace.load_hint path) in
      Sys.remove path;
      Alcotest.(check bool) header is_rel hint.Trace.h_rel)
    [ ("% requires rel=k2", true); ("% requires rel=both", true); ("% requires tau=3", false) ]

(* The acceptance sweep: bounded relation streams, every answer
   byte-identical to the model (FUZZ_STREAMS of them -- 200 by
   default). *)
let test_rel_fuzz_streams () =
  for i = 0 to n_streams - 1 do
    let seed = base_seed + (1000 * i) in
    match Rel_check.run_stream ~seed ~ops:ops_per_stream () with
    | Runner.Pass -> ()
    | Runner.Fail { failure; shrunk; trace = _ } ->
      Alcotest.failf "%s" (Runner.report ~seed ~show:Rel_check.rop_to_string ~failure ~shrunk ())
  done

(* Plant the lost-remove fault and demand the relation pipeline works
   end to end: catch, shrink, save with hint, reload, replay to the
   same failure with the fault, replay clean without it. *)
let test_rel_planted_fault_caught () =
  let fault = Rel_check.Lost_remove in
  let rec hunt seed =
    if seed > base_seed + 9 then
      Alcotest.fail "planted rel-lost-remove fault never caught in 10 streams"
    else
      match Rel_check.run_stream ~fault ~seed ~ops:200 () with
      | Runner.Pass -> hunt (seed + 1)
      | Runner.Fail { failure = _; trace; shrunk } ->
        Alcotest.(check bool) "shrunk trace nonempty" true (shrunk <> []);
        Alcotest.(check bool) "shrinking did not grow the trace" true
          (List.length shrunk <= List.length trace);
        Alcotest.(check bool) "shrunk to a handful of ops" true (List.length shrunk <= 4);
        let path = Filename.temp_file "dsdg-rel-fault" ".trace" in
        Rel_check.save ~fault path shrunk;
        let hint = Result.get_ok (Trace.load_hint path) in
        Alcotest.(check bool) "rel marker survives" true hint.Trace.h_rel;
        let reloaded = Rel_check.load path in
        Sys.remove path;
        Alcotest.(check bool) "minimal trace round-trips" true (reloaded = shrunk);
        (match Rel_check.run_ops ~fault reloaded with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "replayed minimal trace no longer fails under the fault");
        (match Rel_check.run_ops reloaded with
        | Ok () -> ()
        | Error f ->
          Alcotest.failf "minimal trace fails even without the fault: %s"
            f.Runner.f_message)
  in
  hunt base_seed

(* The recovered-state verifier must see what any of its callers could
   get wrong: a subject that claims an id nobody was ever given fails,
   while the honest subject it wraps passes. *)
let test_verify_catches_phantom () =
  let model = Model.create () in
  let s = Subject.of_index ~name:"honest" (DI.create ~index:fuzz_index ()) in
  Fun.protect ~finally:s.close @@ fun () ->
  List.iter
    (fun op ->
      match Runner.apply model s op with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" (Trace.op_to_string op) m)
    (Opgen.generate ~seed:(base_seed + 88) ~ops:40 ());
  Alcotest.(check (list string))
    "honest subject verifies" [] (Runner.verify ~label:"honest" s model);
  let next = Model.inserted model in
  let phantom = { s with Subject.mem = (fun id -> id = next || s.mem id) } in
  Alcotest.(check bool)
    "phantom id fails verify" true (Runner.verify ~label:"phantom" phantom model <> [])

let suite =
  [ ("trace round-trip", `Quick, test_trace_roundtrip);
    ("rel op round-trip", `Quick, test_rel_rop_roundtrip);
    ("index config through the trace hint", `Quick, test_index_config_hint);
    ("opgen deterministic", `Quick, test_opgen_deterministic);
    ("opgen adversarial cases", `Quick, test_opgen_adversarial_cases);
    ("model semantics", `Quick, test_model_semantics);
    ("sync vs pooled equivalence", `Quick, test_sync_vs_pooled_equivalence);
    ("planted fault caught & shrunk", `Slow, test_planted_fault_caught);
    ("planted worker-crash caught & shrunk", `Slow, test_planted_worker_crash_caught);
    ("planted stale-epoch caught & shrunk", `Slow, test_planted_stale_epoch_caught);
    ("rel fuzz streams", `Slow, test_rel_fuzz_streams);
    ("rel planted fault caught & shrunk", `Slow, test_rel_planted_fault_caught);
    ("fuzz t3 (loglog) streams", `Slow, test_fuzz_t3_streams);
    ("fuzz pooled smoke streams", `Slow, test_fuzz_pooled_smoke);
    ("fuzz reader smoke streams", `Slow, test_fuzz_readers_smoke);
    ("fuzz cross-target streams", `Slow, test_fuzz_cross_targets);
    ("fuzz matrix streams", `Slow, test_fuzz_matrix);
    ("verify catches a phantom id", `Quick, test_verify_catches_phantom);
    Qc.to_alcotest prop_trace_op_roundtrip;
    Qc.to_alcotest prop_trace_parse_matches_scanf ]
