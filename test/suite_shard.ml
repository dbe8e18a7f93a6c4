(* Sharded scale-out suite: the Sharded_index collection contract, the
   shard-aware differential fuzz matrix (one stream fanned over K in
   {1, 2, 4} next to the plain index, every answer compared against the
   naive model), durable kill-and-recover sweeps, the shared kill-point
   schedule, recovery from uneven shard tails, parallel-recovery
   equivalence, and the refusal of the version-1 layout.

   Budget knobs shared with suite_check: FUZZ_STREAMS, FUZZ_OPS,
   FUZZ_SEED. *)

open Dsdg_shard
module SI = Sharded_index
module Trace = Dsdg_check.Trace
module Model = Dsdg_check.Model
module Runner = Dsdg_check.Runner
module Store = Dsdg_store

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)

let base_seed = env_int "FUZZ_SEED" 42
let n_streams = env_int "FUZZ_STREAMS" 200
let ops_per_stream = env_int "FUZZ_OPS" 60

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dsdg-suite-shard-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Runner.reset_dir dir;
  Fun.protect ~finally:(fun () -> Runner.reset_dir dir) (fun () -> f dir)

(* --- collection contract --- *)

(* A K=3 collection must behave exactly like the model: sequential
   global ids, global-id answers, point-wise routing. *)
let test_collection_contract () =
  let sh = SI.create ~shards:3 () in
  Fun.protect ~finally:(fun () -> SI.close sh) @@ fun () ->
  let m = Model.create () in
  let texts = [ "banana"; "bandana"; "cabana"; ""; "an an an"; "xyz" ] in
  List.iter
    (fun text ->
      let g = SI.insert sh text in
      Alcotest.(check int) "sequential global id" (Model.insert m text) g)
    texts;
  Alcotest.(check int) "doc_count" (Model.doc_count m) (SI.doc_count sh);
  Alcotest.(check int) "total_symbols" (Model.total_symbols m) (SI.total_symbols sh);
  List.iter
    (fun p ->
      Alcotest.(check (list (pair int int))) ("search " ^ p) (Model.search m p) (SI.search sh p);
      Alcotest.(check int) ("count " ^ p) (Model.count m p) (SI.count sh p))
    [ "an"; "ana"; "a"; "zz" ];
  Alcotest.(check bool) "delete live" true (SI.delete sh 1 && Model.delete m 1);
  Alcotest.(check bool) "delete dead" false (SI.delete sh 1 || Model.delete m 1);
  Alcotest.(check bool) "delete unknown" false (SI.delete sh 424242);
  Alcotest.(check bool) "mem dead" false (SI.mem sh 1);
  Alcotest.(check bool) "mem live" true (SI.mem sh 2);
  Alcotest.(check (list (pair int int))) "search after delete" (Model.search m "an")
    (SI.search sh "an");
  Alcotest.(check (option string)) "extract" (Model.extract m ~doc:2 ~off:2 ~len:3)
    (SI.extract sh ~doc:2 ~off:2 ~len:3);
  Alcotest.(check (option string)) "extract dead" None (SI.extract sh ~doc:1 ~off:0 ~len:2);
  Alcotest.check_raises "empty pattern rejected"
    (Invalid_argument "Dynamic_index: empty pattern") (fun () -> ignore (SI.search sh ""))

(* Placement must be deterministic across instances (global id g on
   shard g mod K) and actually spread documents over all K shards. *)
let test_routing_spread () =
  let a = SI.create ~shards:4 () and b = SI.create ~shards:4 () in
  Fun.protect ~finally:(fun () -> SI.close a; SI.close b) @@ fun () ->
  let seen = Array.make 4 false in
  for i = 0 to 99 do
    let text = Printf.sprintf "doc %d" i in
    let ga = SI.insert a text and gb = SI.insert b text in
    Alcotest.(check int) "same global id" ga gb;
    let sa = Option.get (SI.shard_of a ga) and sb = Option.get (SI.shard_of b gb) in
    Alcotest.(check int) (Printf.sprintf "same placement for %d" ga) sa sb;
    Alcotest.(check int) (Printf.sprintf "%d on shard %d mod 4" ga ga) (ga mod 4) sa;
    seen.(sa) <- true
  done;
  Array.iteri
    (fun s hit -> Alcotest.(check bool) (Printf.sprintf "shard %d populated" s) true hit)
    seen

(* The composite epoch vector has one entry per shard and is
   component-wise monotone under updates. *)
let test_epoch_vector_monotone () =
  let sh = SI.create ~shards:3 () in
  Fun.protect ~finally:(fun () -> SI.close sh) @@ fun () ->
  let prev = ref (SI.epoch_vector sh) in
  Alcotest.(check int) "length K" 3 (Array.length !prev);
  for i = 0 to 39 do
    (if i mod 5 = 4 then ignore (SI.delete sh (i - 2))
     else ignore (SI.insert sh (Printf.sprintf "epoch probe %d" i)));
    let v = SI.epoch_vector sh in
    Array.iteri
      (fun j e ->
        Alcotest.(check bool)
          (Printf.sprintf "op %d: component %d monotone" i j)
          true
          (e >= !prev.(j)))
      v;
    prev := v
  done

(* --- the shard-aware differential fuzz matrix --- *)

let fail_stream ~seed ~failure ~shrunk =
  let path = Filename.temp_file "dsdg-shard-fuzz" ".trace" in
  Trace.save ~hint:{ Trace.no_hint with h_shards = Some 4 } path shrunk;
  Alcotest.failf "%strace saved to %s\nreplay: dsdg fuzz --replay %s --shards 4"
    (Runner.report ~seed ~show:Trace.op_to_string ~failure ~shrunk ())
    path path

(* The plain index of [tg] next to K-shard collections over the same
   settings, K in {1, 2, 4}. *)
let shard_subjects ?(index = Runner.fuzz_index) tg =
  Runner.subjects ~index [ tg ]
  @ Shard_check.subjects ~index:(Runner.target_index tg index) ~name:tg.Runner.tg_name [ 1; 2; 4 ]

(* The bulk run: every stream is fanned over K in {1, 2, 4} and every
   answer compared against the model, next to the plain K=1 index.
   Round-robin over the variant x backend matrix; every third stream
   delete-heavy. *)
let test_fuzz_matrix () =
  let n_pairs = List.length Runner.all_targets in
  for i = 0 to n_streams - 1 do
    let seed = base_seed + 5000 + i in
    let tg = List.nth Runner.all_targets (i mod n_pairs) in
    let profile = if i mod 3 = 2 then Dsdg_check.Opgen.churny else Dsdg_check.Opgen.default in
    match Runner.run_stream ~profile ~seed ~ops:ops_per_stream (shard_subjects tg) with
    | Runner.Pass -> ()
    | Runner.Fail { failure; shrunk; _ } -> fail_stream ~seed ~failure ~shrunk
  done

(* Reader-routed smoke: the scatter-gather path with every per-shard
   query served from that shard's reader pool. *)
let test_fuzz_readers_smoke () =
  let index = { Runner.fuzz_index with readers = 1 } in
  let tg = List.hd (Runner.select_targets ~variant:"amortized" ~backend:"fm" ()) in
  for i = 0 to 7 do
    let seed = base_seed + 6000 + i in
    match Runner.run_stream ~seed ~ops:ops_per_stream (shard_subjects ~index tg) with
    | Runner.Pass -> ()
    | Runner.Fail { failure; shrunk; _ } -> fail_stream ~seed ~failure ~shrunk
  done

(* --- durable sweeps --- *)

let check_recovered (outcome : Runner.kill_outcome) ~min_points =
  Alcotest.(check bool) "points exercised" true (outcome.kc_points > min_points);
  Alcotest.(check string) "no failures" ""
    (String.concat "; "
       (List.map
          (fun (f : Runner.kill_failure) -> Printf.sprintf "point %d: %s" f.kf_point f.kf_detail)
          outcome.kc_failures))

(* Crash a K=2 sharded store at every 5th op, recover in parallel,
   verify against the model, continue the trace, re-verify. *)
let test_kill_sweep () =
  with_tmp_dir (fun dir ->
      let ops = Dsdg_check.Opgen.generate ~seed:(base_seed + 7000) ~ops:60 () in
      check_recovered ~min_points:5
        (Runner.sweep ~stride:5 (Shard_check.crash ~shards:2 ~dir ()) ops))

(* The K=1 and K=2 sweeps run one kill-point schedule:
   0, stride, 2*stride, ... and always the last op, even when the stride
   does not divide the op count, and both leave no store behind. *)
let test_sweep_schedule () =
  let ops = Dsdg_check.Opgen.generate ~seed:(base_seed + 7200) ~ops:41 () in
  List.iter
    (fun (what, sweep) ->
      with_tmp_dir (fun dir ->
          let outcome = sweep dir in
          Alcotest.(check int)
            (what ^ ": kill points 0, 8, ..., 40, 41")
            7 outcome.Runner.kc_points;
          Alcotest.(check int) (what ^ ": no failures") 0 (List.length outcome.kc_failures);
          Alcotest.(check bool) (what ^ ": dir removed") false (Sys.file_exists dir)))
    [
      ("K=1", fun dir -> Runner.sweep ~stride:8 (Shard_check.crash ~shards:1 ~dir ()) ops);
      ("K=2", fun dir -> Runner.sweep ~stride:8 (Shard_check.crash ~shards:2 ~dir ()) ops);
    ]

(* Sequential (recovery_jobs=0) and parallel (recovery_jobs=4) recovery
   of the same crashed K=4 store must agree on everything. *)
let test_parallel_recovery_equivalence () =
  with_tmp_dir (fun dir ->
      let texts = List.init 60 (fun i -> Printf.sprintf "parallel recovery doc %d abab" i) in
      let build () =
        let sh, _ = SI.open_store ~shards:4 ~dir () in
        List.iter (fun t -> ignore (SI.insert sh t)) texts;
        for i = 0 to 14 do
          ignore (SI.delete sh (3 * i))
        done;
        SI.kill sh ~torn:true
      in
      build ();
      let probe recovery_jobs =
        let sh, infos = SI.open_store ~recovery_jobs ~shards:4 ~dir () in
        let replayed =
          Array.fold_left (fun a i -> a + i.Store.Recovery.ri_replayed) 0 infos
        in
        let r =
          ( SI.doc_count sh,
            SI.total_symbols sh,
            SI.search sh "abab",
            SI.count sh "recovery",
            replayed )
        in
        SI.kill sh ~torn:false;
        r
      in
      let seq = probe 0 in
      let par = probe 4 in
      Alcotest.(check bool) "sequential = parallel" true (seq = par);
      let _, _, hits, _, _ = seq in
      Alcotest.(check int) "all live docs found" 45 (List.length hits))

(* A store remembers its K: reopening with a different count is a
   Shard_mismatch, and store_shards reads it back without opening. A
   plain store is never opened over a sharded root; a plain store is
   the K=1 layout, opened in place with no header written. *)
let test_shard_mismatch () =
  with_tmp_dir (fun dir ->
      let sh, _ = SI.open_store ~shards:2 ~dir () in
      ignore (SI.insert sh "mismatch probe");
      SI.close sh;
      Alcotest.(check (option int)) "store_shards" (Some 2) (SI.store_shards ~dir);
      Alcotest.check_raises "reopen with wrong K"
        (SI.Shard_mismatch { dir; on_disk = 2; requested = 3 }) (fun () ->
          ignore (SI.open_store ~shards:3 ~dir ()));
      Alcotest.(check string) "the root holds only a header" "dsdg-shard 2 2\n"
        (In_channel.with_open_bin (Filename.concat dir "shard.meta") In_channel.input_all);
      Alcotest.(check bool) "a plain store refuses the sharded root" true
        (match Store.Durable.open_ ~dir () with
        | _ -> false
        | exception Invalid_argument _ -> true);
      Alcotest.(check bool) "no plain WAL was written" false
        (Sys.file_exists (Store.Recovery.wal_path ~dir)));
  with_tmp_dir (fun dir ->
      let d, _ = Store.Durable.open_ ~dir () in
      ignore (Store.Durable.insert d "a plain store");
      Store.Durable.close d;
      Alcotest.(check (option int)) "a plain store is K=1" (Some 1) (SI.store_shards ~dir);
      Alcotest.check_raises "K=2 over a plain store"
        (SI.Shard_mismatch { dir; on_disk = 1; requested = 2 }) (fun () ->
          ignore (SI.open_store ~shards:2 ~dir ()));
      let sh, _ = SI.open_store ~shards:1 ~dir () in
      Alcotest.(check (option string)) "K=1 serves the plain store" (Some "plain")
        (SI.extract sh ~doc:0 ~off:2 ~len:5);
      Alcotest.(check int) "K=1 continues its ids" 1 (SI.insert sh "written at K=1");
      SI.close sh;
      Alcotest.(check bool) "no header was written" false
        (Sys.file_exists (Filename.concat dir "shard.meta"));
      let d, _ = Store.Durable.open_ ~dir () in
      Alcotest.(check int) "the plain store holds both" 2
        (Dsdg_core.Dynamic_index.doc_count (Store.Durable.index d));
      Store.Durable.close d)

(* apply_batch through the sharded store: results in op order, insert
   results carrying global ids, and the landed state byte-identical to
   the same ops applied one by one in memory. *)
let test_apply_batch () =
  with_tmp_dir (fun dir ->
      let ops =
        [ Trace.Insert "batch alpha ab";
          Trace.Insert "batch bravo ab";
          Trace.Delete 0;
          Trace.Insert "batch charlie";
          Trace.Delete 17;
          Trace.Insert "batch delta ab" ]
      in
      let sh, _ = SI.open_store ~shards:3 ~dir () in
      let results = SI.apply_batch sh ops in
      let expected =
        [ Store.Durable.Br_inserted 0;
          Store.Durable.Br_inserted 1;
          Store.Durable.Br_deleted true;
          Store.Durable.Br_inserted 2;
          Store.Durable.Br_deleted false;
          Store.Durable.Br_inserted 3 ]
      in
      Alcotest.(check bool) "results in op order with global ids" true (results = expected);
      let reference = SI.create ~shards:1 () in
      List.iter
        (function
          | Trace.Insert s -> ignore (SI.insert reference s)
          | Trace.Delete id -> ignore (SI.delete reference id)
          | _ -> ())
        ops;
      Alcotest.(check (list (pair int int))) "batched = sequential" (SI.search reference "ab")
        (SI.search sh "ab");
      SI.close reference;
      (* the batch survives a crash: one group commit per shard *)
      SI.kill sh ~torn:true;
      let sh2, _ = SI.open_store ~shards:3 ~dir () in
      Alcotest.(check int) "doc_count after recovery" 3 (SI.doc_count sh2);
      Alcotest.(check int) "count after recovery" 3 (SI.count sh2 "batch");
      SI.close sh2)

(* A crash between shard commits: one batch touched all three shards,
   and shard 1's last WAL record never landed.  Recovery must serve
   every document still on disk under its old id; the next inserts go
   to the lagging shard first, under ids no document holds. *)
let test_uneven_tails () =
  with_tmp_dir (fun dir ->
      let config = { Store.Durable.default_config with checkpoint_every = 0 } in
      let sh, _ = SI.open_store ~config ~shards:3 ~dir () in
      let text g = Printf.sprintf "uneven doc %d xy" g in
      for g = 0 to 5 do
        Alcotest.(check int) "sequential id" g (SI.insert sh (text g))
      done;
      (* the delete of 4 goes to shard 1, then ids 6, 7, 8 land on
         shards 0, 1, 2 *)
      ignore
        (SI.apply_batch sh
           [ Trace.Delete 4; Trace.Insert (text 6); Trace.Insert (text 7); Trace.Insert (text 8) ]);
      SI.kill sh ~torn:false;
      (* cut shard 1's last record: the insert of id 7 *)
      let wal = Store.Recovery.wal_path ~dir:(Filename.concat dir "shard-1") in
      let raw = In_channel.with_open_bin wal In_channel.input_all in
      let cut = String.rindex_from raw (String.length raw - 2) '\n' + 1 in
      Alcotest.(check string) "the cut record" (Trace.op_to_string (Trace.Insert (text 7)) ^ "\n")
        (String.sub raw cut (String.length raw - cut));
      Out_channel.with_open_bin wal (fun oc -> Out_channel.output_string oc (String.sub raw 0 cut));
      let survivors = [ 0; 1; 2; 3; 5; 6; 8 ] in
      let check_served sh =
        List.iter
          (fun g ->
            Alcotest.(check (option string)) (Printf.sprintf "doc %d keeps its id" g)
              (Some (text g)) (SI.extract sh ~doc:g ~off:0 ~len:(String.length (text g))))
          survivors;
        Alcotest.(check bool) "the deleted doc stays deleted" false (SI.mem sh 4)
      in
      let sh, _ = SI.open_store ~config ~shards:3 ~dir () in
      Alcotest.(check int) "doc_count" (List.length survivors) (SI.doc_count sh);
      check_served sh;
      Alcotest.(check (list (pair int int))) "search in old ids"
        (List.map (fun g -> (g, 0)) survivors)
        (SI.search sh "uneven");
      let fresh = List.init 4 (fun i -> SI.insert sh (Printf.sprintf "refill %d" i)) in
      Alcotest.(check (list int)) "the lagging shard absorbs the next insert" [ 7; 9; 10; 11 ] fresh;
      Alcotest.(check (option int)) "id 7 is shard 1's" (Some 1) (SI.shard_of sh 7);
      SI.close sh;
      let sh, _ = SI.open_store ~config ~shards:3 ~dir () in
      check_served sh;
      List.iteri
        (fun i g ->
          Alcotest.(check (option string)) (Printf.sprintf "refill %d durable" i)
            (Some (Printf.sprintf "refill %d" i)) (SI.extract sh ~doc:g ~off:0 ~len:8))
        fresh;
      Alcotest.(check int) "ids stay unique" 12 (SI.insert sh "next");
      SI.close sh)

(* A store written with hash placement and a placement log (layout
   version 1, test/fixtures/v1-shard2-store, written by an earlier
   `dsdg index --shards 2 --store`) is refused with Old_layout, by the
   K probe and the opener alike, and no byte of it changes. *)
let test_v1_layout_refused () =
  let dir = Filename.concat (Filename.dirname Sys.executable_name) "fixtures/v1-shard2-store" in
  let rec files d =
    List.concat_map
      (fun f ->
        let p = Filename.concat d f in
        if Sys.is_directory p then files p
        else [ (p, In_channel.with_open_bin p In_channel.input_all) ])
      (List.sort compare (Array.to_list (Sys.readdir d)))
  in
  let before = files dir in
  let refused = SI.Old_layout { dir; version = 1 } in
  Alcotest.check_raises "store_shards refuses" refused (fun () -> ignore (SI.store_shards ~dir));
  Alcotest.check_raises "open_store refuses" refused (fun () ->
      ignore (SI.open_store ~shards:2 ~dir ()));
  Alcotest.check_raises "at any K" refused (fun () -> ignore (SI.open_store ~shards:1 ~dir ()));
  Alcotest.(check int) "fixture files" 3 (List.length before);
  Alcotest.(check bool) "byte-identical" true (files dir = before)

(* --- composite-epoch time travel --- *)

(* An as-of query under a captured epoch vector must answer exactly as
   the collection did at capture time, however the writer moves on. *)
let test_epoch_vector_asof () =
  let sh = SI.create ~index:{ Dsdg_core.Index_config.default with retain_epochs = 32 } ~shards:3 () in
  Fun.protect ~finally:(fun () -> SI.close sh) @@ fun () ->
  let m = Model.create () in
  List.iter
    (fun t -> Alcotest.(check int) "ids in step" (Model.insert m t) (SI.insert sh t))
    [ "banana"; "bandana"; "cabana"; "ananas"; "radar" ];
  ignore (SI.delete sh 1);
  ignore (Model.delete m 1);
  let ev = SI.epoch_vector sh in
  let patterns = [ "an"; "ana"; "a"; "ra"; "zz" ] in
  let searches = List.map (fun p -> (p, Model.search m p)) patterns in
  let then_count = Model.doc_count m in
  (* the writer moves on: more inserts and deletes *)
  for i = 0 to 14 do
    ignore (SI.insert sh (Printf.sprintf "later doc %d anan" i))
  done;
  ignore (SI.delete sh 0);
  ignore (SI.delete sh 3);
  (* as-of answers = capture-time model; live answers have moved *)
  List.iter
    (fun (p, hits) ->
      Alcotest.(check (list (pair int int)))
        ("as-of search " ^ p) hits
        (SI.search ~epoch_vector:ev sh p);
      Alcotest.(check int) ("as-of count " ^ p) (List.length hits)
        (SI.count ~epoch_vector:ev sh p))
    searches;
  Alcotest.(check bool) "as-of mem of a doc deleted later" true (SI.mem ~epoch_vector:ev sh 0);
  Alcotest.(check bool) "as-of mem of the dead doc" false (SI.mem ~epoch_vector:ev sh 1);
  Alcotest.(check bool) "as-of mem predates later inserts" false (SI.mem ~epoch_vector:ev sh 5);
  Alcotest.(check (option string)) "as-of extract" (Some "abana") (* of "cabana" *)
    (SI.extract ~epoch_vector:ev sh ~doc:2 ~off:1 ~len:5);
  Alcotest.(check bool) "live view moved on" true (SI.doc_count sh <> then_count);
  (* an epoch vector never published raises *)
  let bogus = Array.map (fun e -> e + 1000) ev in
  match SI.search ~epoch_vector:bogus sh "an" with
  | _ -> Alcotest.fail "unpublished epoch vector answered"
  | exception Invalid_argument _ -> ()

(* A pin keeps its composite epoch resolvable past ring eviction, and
   (store mode) backup materializes it as a fresh openable store. *)
let test_pinned_backup_roundtrip () =
  with_tmp_dir (fun dir ->
      let store_dir = Filename.concat dir "store" in
      let dest = Filename.concat dir "backup" in
      Unix.mkdir dir 0o755;
      let sh, _ = SI.open_store ~shards:2 ~dir:store_dir () in
      let m = Model.create () in
      for i = 0 to 9 do
        let t = Printf.sprintf "pinned doc %d banana" i in
        ignore (SI.insert sh t);
        ignore (Model.insert m t)
      done;
      ignore (SI.delete sh 4);
      ignore (Model.delete m 4);
      let pin = SI.pin sh in
      let ev = SI.pin_epoch_vector pin in
      Alcotest.(check int) "pin vector shape" (SI.shards sh) (Array.length ev);
      (* churn far past any retention (default retain_epochs is 0) *)
      for i = 0 to 24 do
        ignore (SI.insert sh (Printf.sprintf "post-pin churn %d" i))
      done;
      ignore (SI.delete sh 0);
      (* the pinned composite still answers, exactly as pinned *)
      Alcotest.(check (list (pair int int))) "pinned search" (Model.search m "ana")
        (SI.search ~epoch_vector:ev sh "ana");
      Alcotest.(check bool) "pinned mem" true (SI.mem ~epoch_vector:ev sh 0);
      (* back it up while the writer keeps going, then open the copy *)
      ignore (SI.backup sh pin ~dest);
      ignore (SI.insert sh "written during backup? after it, anyway");
      SI.unpin sh pin;
      (match SI.search ~epoch_vector:ev sh "ana" with
      | _ -> Alcotest.fail "unpinned vector still answers"
      | exception Invalid_argument _ -> ());
      Alcotest.(check (option int)) "backup remembers K" (Some 2) (SI.store_shards ~dir:dest);
      let bk, info = SI.open_store ~shards:2 ~dir:dest () in
      Alcotest.(check int) "backup replays nothing"
        0 (Array.fold_left (fun a r -> a + r.Store.Recovery.ri_replayed) 0 info);
      Alcotest.(check int) "backup doc_count" (Model.doc_count m) (SI.doc_count bk);
      Alcotest.(check (list (pair int int))) "backup search" (Model.search m "ana")
        (SI.search bk "ana");
      Alcotest.(check bool) "backup mem dead" false (SI.mem bk 4);
      Alcotest.(check (option string)) "backup extract" (Model.extract m ~doc:7 ~off:0 ~len:6)
        (SI.extract bk ~doc:7 ~off:0 ~len:6);
      (* the backup is a real store: it takes writes, with ids resuming
         after the 10 documents ever inserted before the pin *)
      let g = SI.insert bk "backup grows independently" in
      Alcotest.(check int) "fresh global id" 10 g;
      SI.close bk;
      SI.close sh)

let suite =
  [ ("collection contract (K=3)", `Quick, test_collection_contract);
    ("deterministic routing, all shards populated", `Quick, test_routing_spread);
    ("epoch vector monotone, length K", `Quick, test_epoch_vector_monotone);
    ("as-of queries under a captured epoch vector", `Quick, test_epoch_vector_asof);
    ("pin -> backup -> reopen round-trip", `Quick, test_pinned_backup_roundtrip);
    ("shard mismatch detected", `Quick, test_shard_mismatch);
    ("apply_batch: order, global ids, crash safety", `Quick, test_apply_batch);
    ("parallel recovery = sequential recovery", `Quick, test_parallel_recovery_equivalence);
    ("uneven shard tails: old ids kept, lagging shard refilled", `Quick, test_uneven_tails);
    ("v1 sharded store refused, left untouched", `Quick, test_v1_layout_refused);
    ("kill-and-recover sweep (K=2)", `Slow, test_kill_sweep);
    ("fuzz reader-routed smoke", `Slow, test_fuzz_readers_smoke);
    ("fuzz matrix streams (K in {1,2,4})", `Slow, test_fuzz_matrix);
    ("kill sweeps end at the last op and clean up", `Slow, test_sweep_schedule) ]
