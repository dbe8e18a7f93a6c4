(* Tests for dsdg_store: the CRC-checked codec, snapshot save/load,
   WAL append/read/torn-tail handling, crash recovery (including
   idempotence and the kill-point differential sweep), and the located
   trace parse errors shared by the WAL reader and --replay. *)

open Dsdg_store
module Di = Dsdg_core.Dynamic_index
module Trace = Dsdg_check.Trace
module Model = Dsdg_check.Model

(* Small s and tau so short streams exercise sampled locate and purges. *)
let small = { Dsdg_core.Index_config.default with sample = 4; tau = 4 }

let tmp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

let with_dir prefix f =
  let d = tmp_dir prefix in
  Fun.protect ~finally:(fun () -> Dsdg_check.Runner.reset_dir d) (fun () -> f d)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let all_variants = [ Di.Amortized; Di.Amortized_loglog; Di.Worst_case ]
let all_backends = [ Di.Fm; Di.Plain_sa; Di.Csa ]

let variant_name = function
  | Di.Amortized -> "t1"
  | Di.Amortized_loglog -> "t3"
  | Di.Worst_case -> "t2"

let backend_name = function Di.Fm -> "fm" | Di.Plain_sa -> "sa" | Di.Csa -> "csa"

(* Drive [ops] into an index + model together; returns the number of
   inserts (= next id) for dead-id checking. *)
let drive idx m ops =
  let inserts = ref 0 in
  List.iter
    (fun (op : Trace.op) ->
      match op with
      | Trace.Insert s ->
        let a = Di.insert idx s in
        let b = Model.insert m s in
        incr inserts;
        Alcotest.(check int) "insert id" b a
      | Trace.Delete id ->
        let a = Di.delete idx id in
        let b = Model.delete m id in
        Alcotest.(check bool) "delete result" b a
      | _ -> ())
    ops;
  !inserts

let assert_matches_model ~label idx m ~inserts =
  Alcotest.(check int) (label ^ ": doc_count") (Model.doc_count m) (Di.doc_count idx);
  Alcotest.(check int) (label ^ ": total_symbols") (Model.total_symbols m) (Di.total_symbols idx);
  let live = Model.live m in
  List.iter
    (fun (id, text) ->
      Alcotest.(check bool) (Printf.sprintf "%s: mem %d" label id) true (Di.mem idx id);
      Alcotest.(check (option string))
        (Printf.sprintf "%s: extract %d" label id)
        (Some text)
        (Di.extract idx ~doc:id ~off:0 ~len:(String.length text)))
    live;
  for id = 0 to inserts - 1 do
    if not (List.mem_assoc id live) then
      Alcotest.(check bool) (Printf.sprintf "%s: dead %d" label id) false (Di.mem idx id)
  done;
  List.iter
    (fun p ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s: search %S" label p)
        (Model.search m p) (Di.search idx p))
    [ "ab"; "ba"; "a" ]

let churn_ops =
  [
    Trace.Insert "abracadabra";
    Trace.Insert "banana band";
    Trace.Insert "";
    Trace.Insert "cabbage";
    Trace.Delete 1;
    Trace.Insert "abba babble";
    Trace.Delete 0;
    Trace.Insert "dabble";
    Trace.Insert "barbarossa";
    Trace.Delete 3;
    Trace.Delete 3;
    Trace.Insert "a";
    Trace.Insert "baobab";
    Trace.Delete 5;
    Trace.Insert "scarab beetle";
  ]

(* --- codec primitives --- *)

let test_codec_primitives () =
  let w = Codec.W.create () in
  Codec.W.u8 w 0;
  Codec.W.u8 w 255;
  Codec.W.int w 0;
  Codec.W.int w max_int;
  Codec.W.int w min_int;
  Codec.W.int w (-42);
  Codec.W.string w "";
  Codec.W.string w "hello \x00 binary \xff bytes";
  Codec.W.bool_array w [||];
  Codec.W.bool_array w [| true |];
  Codec.W.bool_array w (Array.init 17 (fun i -> i mod 3 = 0));
  let r = Codec.R.of_string ~file:"mem" ~section:"prim" (Codec.W.contents w) in
  Alcotest.(check int) "u8 0" 0 (Codec.R.u8 r);
  Alcotest.(check int) "u8 255" 255 (Codec.R.u8 r);
  Alcotest.(check int) "int 0" 0 (Codec.R.int r);
  Alcotest.(check int) "int max" max_int (Codec.R.int r);
  Alcotest.(check int) "int min" min_int (Codec.R.int r);
  Alcotest.(check int) "int -42" (-42) (Codec.R.int r);
  Alcotest.(check string) "string empty" "" (Codec.R.string r);
  Alcotest.(check string) "string binary" "hello \x00 binary \xff bytes" (Codec.R.string r);
  Alcotest.(check (array bool)) "bools empty" [||] (Codec.R.bool_array r);
  Alcotest.(check (array bool)) "bools one" [| true |] (Codec.R.bool_array r);
  Alcotest.(check (array bool))
    "bools 17"
    (Array.init 17 (fun i -> i mod 3 = 0))
    (Codec.R.bool_array r);
  Alcotest.(check bool) "at_end" true (Codec.R.at_end r);
  (* overrun is a located Corrupt, not a crash *)
  (match Codec.R.int r with
  | _ -> Alcotest.fail "overrun not detected"
  | exception Codec.Corrupt _ -> ())

let test_crc32_vector () =
  (* the classic check value for the IEEE polynomial *)
  Alcotest.(check int) "crc32(123456789)" 0xCBF43926 (Codec.crc32 "123456789");
  Alcotest.(check int) "crc32 empty" 0 (Codec.crc32 "")

(* --- container integrity --- *)

let mk_small_store dir =
  let idx = Di.create ~index:small () in
  let m = Model.create () in
  let inserts = drive idx m churn_ops in
  let path = Snapshot.save ~dir ~wal_serial:17 (Di.dump idx) in
  (path, m, inserts)

let test_snapshot_roundtrip () =
  with_dir "dsdg-store-rt" (fun dir ->
      let path, m, inserts = mk_small_store dir in
      let dump, wal_serial = Snapshot.load path in
      Alcotest.(check int) "wal serial" 17 wal_serial;
      let idx = Di.restore dump in
      assert_matches_model ~label:"loaded" idx m ~inserts;
      Alcotest.(check int) "epoch survives" dump.Di.dm_epoch (Di.view_epoch (Di.view idx)))

(* Every single-byte corruption must surface as Codec.Corrupt -- never
   as a different decoded state, never as a random exception.  (A flip
   that left a file decoding to the identical dump would be legal; the
   version byte is not one: it flips to a version newer than the
   reader's.) *)
let test_snapshot_corruption_rejected () =
  with_dir "dsdg-store-corrupt" (fun dir ->
      let path, _, _ = mk_small_store dir in
      let good = read_file path in
      let reference = Snapshot.load path in
      let n = String.length good in
      let step = max 1 (n / 251) in
      let checked = ref 0 in
      let i = ref 0 in
      while !i < n do
        let b = Bytes.of_string good in
        Bytes.set b !i (Char.chr (Char.code (Bytes.get b !i) lxor 0x41));
        write_file path (Bytes.to_string b);
        (match Snapshot.load path with
        | d -> if d <> reference then Alcotest.failf "flip at byte %d silently changed the dump" !i
        | exception Codec.Corrupt _ -> ()
        | exception e ->
          Alcotest.failf "flip at byte %d raised %s, not Corrupt" !i (Printexc.to_string e));
        incr checked;
        i := !i + step
      done;
      Alcotest.(check bool) "flipped a few bytes" true (!checked > 100))

let test_snapshot_truncation_rejected () =
  with_dir "dsdg-store-trunc" (fun dir ->
      let path, _, _ = mk_small_store dir in
      let good = read_file path in
      let n = String.length good in
      List.iter
        (fun len ->
          write_file path (String.sub good 0 len);
          match Snapshot.load path with
          | _ -> Alcotest.failf "truncation to %d bytes not detected" len
          | exception Codec.Corrupt _ -> ())
        [ 0; 1; 3; 4; 5; n / 4; n / 2; n - 1 ])

let test_relation_roundtrip () =
  with_dir "dsdg-store-rel" (fun dir ->
      let rel = Dsdg_binrel.Dyn_binrel.create ~tau:4 () in
      let ops = [ (1, 2); (1, 3); (2, 2); (5, 9); (1, 2); (7, 1) ] in
      List.iter (fun (o, a) -> ignore (Dsdg_binrel.Dyn_binrel.add rel o a)) ops;
      ignore (Dsdg_binrel.Dyn_binrel.remove rel 2 2);
      let path = Filename.concat dir "rel.dsdg" in
      Snapshot.ensure_dir dir;
      Codec.write_relation path (Dsdg_binrel.Dyn_binrel.pairs_list rel);
      let pairs = Codec.read_relation path in
      Alcotest.(check (list (pair int int))) "pairs" [ (1, 2); (1, 3); (5, 9); (7, 1) ] pairs;
      (* digraph edge set goes through the same codec *)
      let g = Dsdg_binrel.Digraph.create () in
      List.iter (fun (u, v) -> ignore (Dsdg_binrel.Digraph.add_edge g u v)) pairs;
      Alcotest.(check (list (pair int int))) "edges" pairs (Dsdg_binrel.Digraph.edges g))

(* --- dump/restore across the matrix --- *)

let test_dump_restore_matrix () =
  List.iter
    (fun variant ->
      List.iter
        (fun backend ->
          let label = variant_name variant ^ "/" ^ backend_name backend in
          let idx = Di.create ~index:{ small with variant; backend } () in
          let m = Model.create () in
          let inserts = drive idx m churn_ops in
          let dump = Di.dump idx in
          let restored = Di.restore dump in
          assert_matches_model ~label restored m ~inserts;
          Alcotest.(check int)
            (label ^ ": epoch survives")
            dump.Di.dm_epoch
            (Di.view_epoch (Di.view restored)))
        all_backends)
    all_variants

(* --- WAL --- *)

let test_wal_roundtrip () =
  with_dir "dsdg-wal-rt" (fun dir ->
      Snapshot.ensure_dir dir;
      let path = Filename.concat dir "wal.log" in
      let w = Wal.create ~sync:(Wal.Every 2) path ~serial0:5 in
      Alcotest.(check int) "serial 5" 5 (Wal.append w (Trace.Insert "alpha"));
      Alcotest.(check int) "serial 6" 6 (Wal.append w (Trace.Delete 0));
      Alcotest.(check int) "serial 7" 7 (Wal.append w (Trace.Insert "beta \"quoted\"\nline"));
      Wal.close w;
      let c = Wal.read path in
      Alcotest.(check int) "serial0" 5 c.Wal.wc_serial0;
      Alcotest.(check bool) "not truncated" false c.Wal.wc_truncated;
      Alcotest.(check (list (pair int string)))
        "records"
        [ (5, "+ \"alpha\""); (6, "- 0"); (7, Trace.op_to_string (Trace.Insert "beta \"quoted\"\nline")) ]
        (List.map (fun (s, op) -> (s, Trace.op_to_string op)) c.Wal.wc_ops);
      (* reopen for append continues the serials *)
      let w2 = Wal.open_append path ~next_serial:8 in
      Alcotest.(check int) "serial 8" 8 (Wal.append w2 (Trace.Insert "gamma"));
      Wal.close w2;
      Alcotest.(check int) "4 records" 4 (List.length (Wal.read path).Wal.wc_ops))

let test_wal_torn_tail () =
  with_dir "dsdg-wal-torn" (fun dir ->
      Snapshot.ensure_dir dir;
      let path = Filename.concat dir "wal.log" in
      let w = Wal.create path ~serial0:0 in
      ignore (Wal.append w (Trace.Insert "kept"));
      ignore (Wal.append w (Trace.Delete 0));
      Wal.kill w ~torn:true;
      let c = Wal.read path in
      Alcotest.(check bool) "truncated" true c.Wal.wc_truncated;
      Alcotest.(check int) "2 whole records" 2 (List.length c.Wal.wc_ops);
      Wal.truncate_torn path c;
      let c2 = Wal.read path in
      Alcotest.(check bool) "clean after truncation" false c2.Wal.wc_truncated;
      Alcotest.(check int) "still 2 records" 2 (List.length c2.Wal.wc_ops);
      (* a parseable-prefix torn record must also be dropped: "- 123"
         torn to "- 12" parses, but replaying it would delete the wrong
         id *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "- 12";
      close_out oc;
      let c3 = Wal.read path in
      Alcotest.(check bool) "parseable prefix dropped" true c3.Wal.wc_truncated;
      Alcotest.(check int) "still 2" 2 (List.length c3.Wal.wc_ops))

let test_wal_interior_corruption_located () =
  with_dir "dsdg-wal-bad" (fun dir ->
      Snapshot.ensure_dir dir;
      let path = Filename.concat dir "wal.log" in
      let w = Wal.create path ~serial0:0 in
      ignore (Wal.append w (Trace.Insert "ok"));
      Wal.close w;
      (* a malformed line *with* a newline was fully written: that is
         real corruption and must be located, not dropped *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "+ unquoted garbage\n";
      output_string oc "- 3\n";
      close_out oc;
      match Wal.read path with
      | _ -> Alcotest.fail "interior corruption not detected"
      | exception Trace.Parse_error e ->
        Alcotest.(check int) "line number" 3 e.Trace.pe_line;
        Alcotest.(check bool)
          "reason names the field" true
          (String.length e.Trace.pe_reason > 0))

let test_wal_missing_header () =
  with_dir "dsdg-wal-nohdr" (fun dir ->
      Snapshot.ensure_dir dir;
      let path = Filename.concat dir "wal.log" in
      write_file path "+ \"no header\"\n";
      match Wal.read path with
      | _ -> Alcotest.fail "missing header not detected"
      | exception Trace.Parse_error _ -> ())

(* --- located trace errors in the --replay consumer --- *)

let test_trace_load_located_error () =
  let path = Filename.temp_file "dsdg-trace-bad" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "% comment\n+ \"fine\"\n\n= 1 2\n";
      match Trace.load path with
      | _ -> Alcotest.fail "bad extract record not detected"
      | exception Trace.Parse_error e ->
        Alcotest.(check int) "line number" 4 e.Trace.pe_line;
        Alcotest.(check string) "offending text" "= 1 2" e.Trace.pe_text;
        let msg = Trace.parse_error_message ~file:"f.trace" e in
        Alcotest.(check bool) "message locates" true
          (String.length msg > 0
          && String.sub msg 0 2 = "f."
          && e.Trace.pe_reason <> ""))

(* --- durable store + recovery --- *)

let durable_cfg every =
  { Durable.sync = Wal.Always; checkpoint_every = every; checkpoint_jobs = 0 }

let test_durable_reopen () =
  with_dir "dsdg-durable" (fun dir ->
      let d, info0 = Durable.open_ ~config:(durable_cfg 4) ~index:small ~dir () in
      Alcotest.(check int) "fresh: nothing replayed" 0 info0.Recovery.ri_replayed;
      let m = Model.create () in
      let inserts = ref 0 in
      List.iter
        (fun (op : Trace.op) ->
          match op with
          | Trace.Insert s ->
            ignore (Model.insert m s);
            incr inserts;
            ignore (Durable.insert d s)
          | Trace.Delete id ->
            ignore (Model.delete m id);
            ignore (Durable.delete d id)
          | _ -> ())
        churn_ops;
      let epoch = Di.view_epoch (Di.view (Durable.index d)) in
      Durable.close d;
      let d2, info = Durable.open_ ~config:(durable_cfg 4) ~dir () in
      Alcotest.(check bool) "recovered from a snapshot" true (info.Recovery.ri_snapshot <> None);
      assert_matches_model ~label:"reopened" (Durable.index d2) m ~inserts:!inserts;
      Alcotest.(check int) "epoch continues" epoch (Di.view_epoch (Di.view (Durable.index d2)));
      (* a checkpoint compacts the WAL: the next reopen replays nothing *)
      Durable.checkpoint d2;
      Durable.close d2;
      let d3, info3 = Durable.open_ ~dir () in
      Alcotest.(check int) "no replay after checkpoint" 0 info3.Recovery.ri_replayed;
      assert_matches_model ~label:"re-reopened" (Durable.index d3) m ~inserts:!inserts;
      Durable.close d3)

let test_recovery_idempotent () =
  with_dir "dsdg-recover-idem" (fun dir ->
      let d, _ = Durable.open_ ~config:(durable_cfg 5) ~index:small ~dir () in
      let m = Model.create () in
      let inserts = ref 0 in
      List.iter
        (fun (op : Trace.op) ->
          match op with
          | Trace.Insert s ->
            ignore (Model.insert m s);
            incr inserts;
            ignore (Durable.insert d s)
          | Trace.Delete id ->
            ignore (Model.delete m id);
            ignore (Durable.delete d id)
          | _ -> ())
        churn_ops;
      Durable.kill d ~torn:true;
      (* recovering twice must land in the same state as recovering once *)
      let idx1, info1 = Recovery.open_or_recover ~dir () in
      let state idx =
        ( Di.doc_count idx,
          Di.total_symbols idx,
          Di.view_epoch (Di.view idx),
          List.filter_map
            (fun id -> Di.extract idx ~doc:id ~off:0 ~len:1000 |> Option.map (fun s -> (id, s)))
            (List.init !inserts (fun i -> i)) )
      in
      let s1 = state idx1 in
      Alcotest.(check bool) "first recovery truncated the torn tail" true
        info1.Recovery.ri_truncated;
      Di.close idx1;
      let idx2, info2 = Recovery.open_or_recover ~dir () in
      Alcotest.(check bool) "second recovery sees a clean tail" false info2.Recovery.ri_truncated;
      Alcotest.(check bool) "identical state" true (state idx2 = s1);
      assert_matches_model ~label:"recovered" idx2 m ~inserts:!inserts;
      Di.close idx2)

let test_background_checkpoint () =
  with_dir "dsdg-ckpt-bg" (fun dir ->
      let config =
        { Durable.sync = Wal.Every 4; checkpoint_every = 6; checkpoint_jobs = 1 }
      in
      let d, _ = Durable.open_ ~config ~index:small ~dir () in
      let m = Model.create () in
      let inserts = ref 0 in
      for round = 0 to 39 do
        let text = Printf.sprintf "document %d abab%s" round (String.make (round mod 7) 'c') in
        ignore (Model.insert m text);
        incr inserts;
        ignore (Durable.insert d text);
        if round mod 5 = 4 then begin
          let id = round - 3 in
          ignore (Model.delete m id);
          ignore (Durable.delete d id)
        end
      done;
      Durable.close d;
      Alcotest.(check bool) "snapshots were installed" true (Snapshot.list ~dir <> []);
      let d2, _ = Durable.open_ ~dir () in
      assert_matches_model ~label:"bg-checkpointed" (Durable.index d2) m ~inserts:!inserts;
      Durable.close d2)

let test_kill_sweep_matrix () =
  List.iter
    (fun variant ->
      List.iter
        (fun backend ->
          let label = variant_name variant ^ "/" ^ backend_name backend in
          let dir = tmp_dir ("dsdg-kill-" ^ variant_name variant ^ backend_name backend) in
          let ops = Dsdg_check.Opgen.generate ~seed:7 ~ops:24 () in
          let crash =
            Dsdg_shard.Shard_check.crash ~index:{ small with variant; backend } ~shards:1 ~dir ()
          in
          let o = Dsdg_check.Runner.sweep ~stride:5 crash ops in
          if o.Dsdg_check.Runner.kc_failures <> [] then
            Alcotest.failf "%s: %s" label (Dsdg_check.Runner.kill_summary o))
        all_backends)
    all_variants

(* --- group commit and the [Every n] pending-append accounting --- *)

let fsyncs () =
  match List.assoc_opt "wal_fsyncs" (Dsdg_obs.Obs.counters (Dsdg_obs.Obs.scope "store")) with
  | Some n -> n
  | None -> 0

let test_wal_every_n_accounting () =
  with_dir "dsdg-wal-everyn" (fun dir ->
      Snapshot.ensure_dir dir;
      let path = Filename.concat dir "wal.log" in
      let w = Wal.create ~sync:(Wal.Every 3) path ~serial0:0 in
      ignore (Wal.append w (Trace.Insert "a"));
      ignore (Wal.append w (Trace.Insert "b"));
      Alcotest.(check int) "2 pending" 2 (Wal.unsynced w);
      ignore (Wal.append w (Trace.Insert "c"));
      Alcotest.(check int) "threshold fsyncs, resets" 0 (Wal.unsynced w);
      (* a batch counts every record it carries *)
      ignore (Wal.append_batch w [ Trace.Insert "d"; Trace.Insert "e" ]);
      Alcotest.(check int) "batch of 2 pending" 2 (Wal.unsynced w);
      ignore (Wal.append_batch w [ Trace.Insert "f"; Trace.Insert "g" ]);
      Alcotest.(check int) "batch crosses threshold" 0 (Wal.unsynced w);
      (* explicit sync clears the counter *)
      ignore (Wal.append w (Trace.Insert "h"));
      Wal.sync w;
      Alcotest.(check int) "sync resets" 0 (Wal.unsynced w);
      Wal.close w;
      (* compaction must not carry pending-append state into the new log *)
      let w2 = Wal.rewrite ~sync:(Wal.Every 3) path ~serial0:8 [ Trace.Insert "tail" ] in
      Alcotest.(check int) "rewrite starts clean" 0 (Wal.unsynced w2);
      Wal.close w2;
      (* reopen-for-append likewise *)
      let w3 = Wal.open_append ~sync:(Wal.Every 3) path ~next_serial:9 in
      Alcotest.(check int) "open_append starts clean" 0 (Wal.unsynced w3);
      ignore (Wal.append w3 (Trace.Insert "i"));
      Alcotest.(check int) "counts from zero after reopen" 1 (Wal.unsynced w3);
      Wal.close w3)

let test_wal_group_commit_single_fsync () =
  with_dir "dsdg-wal-group" (fun dir ->
      Snapshot.ensure_dir dir;
      let path = Filename.concat dir "wal.log" in
      let w = Wal.create ~sync:Wal.Always path ~serial0:0 in
      let ops = List.init 16 (fun i -> Trace.Insert (Printf.sprintf "doc %d" i)) in
      let before = fsyncs () in
      let serial = Wal.append_batch w ops in
      Alcotest.(check int) "batch serial" 0 serial;
      Alcotest.(check int) "one fsync for 16 records" 1 (fsyncs () - before);
      Alcotest.(check int) "serials advanced" 16 (Wal.next_serial w);
      (* the empty batch is free: no record, no fsync *)
      let before = fsyncs () in
      Alcotest.(check int) "empty batch serial" 16 (Wal.append_batch w []);
      Alcotest.(check int) "empty batch no fsync" 0 (fsyncs () - before);
      Wal.close w;
      let c = Wal.read path in
      Alcotest.(check int) "all records durable" 16 (List.length c.Wal.wc_ops))

(* A K = 3 batch touching every shard is one group commit per shard:
   exactly three WAL fsyncs, and nothing else is fsynced per batch. *)
let test_sharded_batch_fsyncs () =
  with_dir "dsdg-shard-fsyncs" (fun dir ->
      let module SI = Dsdg_shard.Sharded_index in
      let config = { Durable.default_config with sync = Wal.Always; checkpoint_every = 0 } in
      let sh, _ = SI.open_store ~config ~shards:3 ~dir () in
      ignore (SI.insert sh "before the batch");
      let before = fsyncs () in
      let rs =
        SI.apply_batch sh
          [ Trace.Insert "one"; Trace.Insert "two"; Trace.Insert "three"; Trace.Delete 0 ]
      in
      Alcotest.(check int) "three fsyncs" 3 (fsyncs () - before);
      Alcotest.(check bool) "every shard written" true
        (rs = [ Durable.Br_inserted 1; Durable.Br_inserted 2; Durable.Br_inserted 3; Durable.Br_deleted true ]);
      SI.close sh)

let test_durable_apply_batch () =
  with_dir "dsdg-durable-batch" (fun dir ->
      let d, _ = Durable.open_ ~dir () in
      let rs =
        Durable.apply_batch d
          [ Trace.Insert "alpha"; Trace.Insert "beta"; Trace.Delete 0; Trace.Delete 0 ]
      in
      Alcotest.(check bool) "results in op order" true
        (rs
        = [
            Durable.Br_inserted 0; Durable.Br_inserted 1; Durable.Br_deleted true;
            Durable.Br_deleted false;
          ]);
      (* queries are not mutations: the whole batch is rejected before
         any WAL append *)
      let serial = Durable.wal_serial d in
      (match Durable.apply_batch d [ Trace.Insert "c"; Trace.Search "x" ] with
      | _ -> Alcotest.fail "query accepted in a write batch"
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) "rejected batch logged nothing" serial (Durable.wal_serial d);
      Durable.close d;
      (* the batch is in the WAL: reopen replays it *)
      let d2, info = Durable.open_ ~dir () in
      Alcotest.(check int) "replayed" 4 info.Recovery.ri_replayed;
      Alcotest.(check int) "one live doc" 1 (Di.doc_count (Durable.index d2));
      Alcotest.(check bool) "beta live" true (Di.mem (Durable.index d2) 1);
      Durable.close d2)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_checkpoint_no_fd_leak () =
  if not (Sys.file_exists "/proc/self/fd") then ()
  else
    with_dir "dsdg-fd-leak" (fun dir ->
        (* checkpoint_every 2: every other insert compacts the WAL,
           which used to leak the superseded out_channel's fd *)
        let d, _ = Durable.open_ ~config:(durable_cfg 2) ~dir () in
        ignore (Durable.insert d "warmup one");
        ignore (Durable.insert d "warmup two");
        let before = open_fds () in
        for i = 0 to 19 do
          ignore (Durable.insert d (Printf.sprintf "doc %d" i))
        done;
        let after = open_fds () in
        Alcotest.(check bool)
          (Printf.sprintf "fds stable across 10 compactions (%d -> %d)" before after)
          true
          (after <= before + 1);
        Durable.close d)

let test_gap_detected () =
  with_dir "dsdg-gap" (fun dir ->
      let d, _ = Durable.open_ ~config:(durable_cfg 4) ~index:small ~dir () in
      for i = 0 to 11 do
        ignore (Durable.insert d (Printf.sprintf "doc %d" i))
      done;
      Durable.close d;
      (* delete every snapshot: the WAL has been compacted past serial 0,
         so its surviving records cannot stand alone *)
      List.iter (fun (p, _) -> Sys.remove p) (Snapshot.list ~dir);
      match Durable.open_ ~dir () with
      | d2, _ ->
        Durable.close d2;
        Alcotest.fail "snapshot/WAL gap not detected"
      | exception Recovery.Gap _ -> ())

(* --- WAL tailing (the replication read side) --- *)

let tail_texts recs = List.map (fun (s, op) -> (s, Trace.op_to_string op)) recs

(* A cursor positioned mid-file delivers exactly the records from its
   starting serial, and tiny read buffers that split records across
   chunk boundaries reassemble them byte-identically. *)
let test_wal_tail_midfile_and_straddle () =
  with_dir "dsdg-wal-tail" (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "wal.log" in
      let w = Wal.create path ~serial0:0 in
      let ops =
        List.init 9 (fun i ->
            if i mod 3 = 2 then Trace.Delete (i / 3)
            else Trace.Insert (Printf.sprintf "document-%d-%s" i (String.make (i * 3) 'x')))
      in
      List.iter (fun op -> ignore (Wal.append w op)) ops;
      (* mid-file start *)
      let c = Wal.tail ~from:4 path in
      let got = Wal.tail_poll c in
      Alcotest.(check int) "mid-file count" 5 (List.length got);
      Alcotest.(check (list (pair int string)))
        "mid-file records"
        (List.filteri (fun i _ -> i >= 4) ops
        |> List.mapi (fun i op -> (4 + i, Trace.op_to_string op)))
        (tail_texts got);
      Wal.tail_close c;
      (* 7-byte buffer: every record straddles chunk boundaries *)
      let c = Wal.tail ~buf_size:7 ~from:0 path in
      let got = Wal.tail_poll c in
      Alcotest.(check (list (pair int string)))
        "straddled records"
        (List.mapi (fun i op -> (i, Trace.op_to_string op)) ops)
        (tail_texts got);
      (* appends between polls are picked up by the next poll *)
      Alcotest.(check (list (pair int string))) "quiet poll" [] (tail_texts (Wal.tail_poll c));
      ignore (Wal.append w (Trace.Insert "late arrival"));
      ignore (Wal.append w (Trace.Delete 0));
      Alcotest.(check (list (pair int string)))
        "appended between polls"
        [ (9, {|+ "late arrival"|}); (10, "- 0") ]
        (tail_texts (Wal.tail_poll c));
      Wal.tail_close c;
      Wal.close w)

(* A final line with no newline yet -- a write in flight from a live
   writer, indistinguishable from a torn record -- is held back until
   its newline lands, then delivered whole. *)
let test_wal_tail_torn_final_writer_alive () =
  with_dir "dsdg-wal-tailtorn" (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "wal.log" in
      let w = Wal.create path ~serial0:0 in
      ignore (Wal.append w (Trace.Insert "whole"));
      let c = Wal.tail ~from:0 path in
      Alcotest.(check int) "whole record delivered" 1 (List.length (Wal.tail_poll c));
      (* hand-write a partial record, as if the writer died (or was
         scheduled out) mid-line *)
      let oc = Out_channel.open_gen [ Open_append; Open_binary ] 0o644 path in
      Out_channel.output_string oc {|+ "half-wri|};
      Out_channel.flush oc;
      Alcotest.(check (list (pair int string)))
        "partial line held back" [] (tail_texts (Wal.tail_poll c));
      Out_channel.output_string oc "tten\"\n";
      Out_channel.flush oc;
      Out_channel.close oc;
      Alcotest.(check (list (pair int string)))
        "completed line delivered"
        [ (1, {|+ "half-written"|}) ]
        (tail_texts (Wal.tail_poll c));
      Wal.tail_close c;
      Wal.abandon w)

(* Compaction with archiving keeps the outgoing log as an immutable
   segment: every pre-checkpoint record stays readable, [archives]
   lists segments ascending, and pruning drops the oldest first. *)
let test_wal_archive_roundtrip () =
  with_dir "dsdg-wal-arch" (fun dir ->
      let d, _ = Durable.open_ ~config:(durable_cfg 3) ~index:small ~dir () in
      for i = 0 to 10 do
        ignore (Durable.insert d (Printf.sprintf "archived doc %d" i))
      done;
      let wal = Durable.wal_path d in
      let ar = Wal.archives wal in
      Alcotest.(check bool) "archives exist" true (List.length ar >= 2);
      let ends = List.map snd ar in
      Alcotest.(check (list int)) "ends ascending" (List.sort compare ends) ends;
      (* the archive chain + live log covers every serial exactly once
         per segment boundary: each segment starts where the previous
         one did its header, and the oldest starts at 0 *)
      let first = List.hd ar in
      let contents = Wal.read (fst first) in
      Alcotest.(check int) "oldest archive starts at serial 0" 0 contents.Wal.wc_serial0;
      Alcotest.(check bool)
        "oldest archive reaches its end serial" true
        (contents.Wal.wc_serial0 + List.length contents.Wal.wc_ops >= snd first);
      (* a tail cursor reads an archive segment like any log *)
      let c = Wal.tail ~from:1 (fst first) in
      let got = Wal.tail_poll c in
      Alcotest.(check bool) "archive tail delivers" true (List.length got > 0);
      Alcotest.(check int) "archive tail from serial 1" 1 (fst (List.hd got));
      Wal.tail_close c;
      Wal.prune_archives wal ~keep:1;
      Alcotest.(check int) "pruned to 1" 1 (List.length (Wal.archives wal));
      Wal.prune_archives wal ~keep:0;
      Alcotest.(check (list (pair string int))) "pruned to none" [] (Wal.archives wal);
      Durable.close d)

(* --- read-only recovery (satellite: observation never mutates) --- *)

let dir_bytes dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f ->
         let p = Filename.concat dir f in
         (f, if Sys.is_directory p then "<dir>" else read_file p))

let test_recovery_read_only_never_mutates () =
  with_dir "dsdg-ro" (fun dir ->
      let d, _ = Durable.open_ ~config:(durable_cfg 4) ~index:small ~dir () in
      let m = Model.create () in
      for i = 0 to 9 do
        let id = Durable.insert d (Printf.sprintf "ro doc %d" i) in
        Alcotest.(check int) "id" (Model.insert m (Printf.sprintf "ro doc %d" i)) id
      done;
      ignore (Durable.delete d 3);
      ignore (Model.delete m 3);
      (* crash with a torn final record: the mutating path would
         truncate it; read-only must not *)
      Durable.kill d ~torn:true;
      let before = dir_bytes dir in
      let idx, info = Recovery.open_or_recover ~read_only:true ~dir () in
      Alcotest.(check bool) "torn tail reported" true info.Recovery.ri_truncated;
      assert_matches_model ~label:"read-only recovery" idx m ~inserts:10;
      Di.close idx;
      Alcotest.(check bool) "no byte changed on disk" true (dir_bytes dir = before);
      (* a second read-only pass sees the identical (untruncated) store *)
      let idx2, info2 = Recovery.open_or_recover ~read_only:true ~dir () in
      Alcotest.(check bool) "still reported torn" true info2.Recovery.ri_truncated;
      Di.close idx2;
      Alcotest.(check bool) "still unchanged" true (dir_bytes dir = before);
      (* the mutating open truncates (once) and yields the same state *)
      let d2, _ = Durable.open_ ~config:(durable_cfg 0) ~dir () in
      assert_matches_model ~label:"mutating recovery" (Durable.index d2) m ~inserts:10;
      Durable.close d2)

(* --- pinned-view backup --- *)

let test_durable_pin_backup () =
  with_dir "dsdg-pinback" (fun dir ->
      let dest = tmp_dir "dsdg-pinback-dest" in
      Fun.protect
        ~finally:(fun () -> Dsdg_check.Runner.reset_dir dest)
        (fun () ->
          let d, _ = Durable.open_ ~config:(durable_cfg 3) ~index:small ~dir () in
          let m = Model.create () in
          for i = 0 to 7 do
            ignore (Durable.insert d (Printf.sprintf "pinned doc %d" i));
            ignore (Model.insert m (Printf.sprintf "pinned doc %d" i))
          done;
          ignore (Durable.delete d 2);
          ignore (Model.delete m 2);
          let p = Durable.pin d in
          let serial = Durable.pin_serial p in
          Alcotest.(check int) "pin serial = wal serial" (Durable.wal_serial d) serial;
          (* the writer moves on; checkpoints may evict the pinned epoch
             from the retention ring -- the pin must survive *)
          for i = 8 to 24 do
            ignore (Durable.insert d (Printf.sprintf "post-pin doc %d" i))
          done;
          ignore (Durable.delete d 0);
          let snap = Durable.backup d p ~dest in
          Alcotest.(check bool) "backup snapshot in dest" true (Filename.dirname snap = dest);
          Durable.unpin d p;
          Durable.close d;
          (* the backup opens as an ordinary store holding exactly the
             pinned state *)
          let b, info = Durable.open_ ~dir:dest () in
          Alcotest.(check int) "backup replays nothing" 0 info.Recovery.ri_replayed;
          assert_matches_model ~label:"backup state" (Durable.index b) m ~inserts:8;
          Durable.close b))

(* --- checkpoints fold the log into the base snapshot --- *)

let store_counter name =
  Option.value ~default:0 (List.assoc_opt name (Dsdg_obs.Obs.counters (Dsdg_obs.Obs.scope "store")))

let corrupt_middle path =
  let b = Bytes.of_string (read_file path) in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x41));
  write_file path (Bytes.to_string b)

(* Drive [n] single-op inserts (and a delete every third) into a store
   and the model. *)
let churn_store d m ~from n =
  for i = from to from + n - 1 do
    let text = Printf.sprintf "doc %d abab%s" i (String.make (i mod 5) 'c') in
    Alcotest.(check int) "insert id" (Model.insert m text) (Durable.insert d text);
    if i mod 3 = 2 then
      Alcotest.(check bool) "delete" (Model.delete m (i - 2)) (Durable.delete d (i - 2))
  done

let recover_matches ~label ~dir m =
  let d, _ = Durable.open_ ~dir () in
  assert_matches_model ~label (Durable.index d) m ~inserts:(Model.inserted m);
  Durable.close d

(* The newest snapshot is corrupted between two checkpoints: the next
   checkpoint cannot fold into it, falls back to the view dump, and
   still captures every acked write -- synchronously and on a worker. *)
let test_checkpoint_corrupt_base_fallback () =
  List.iter
    (fun jobs ->
      with_dir "dsdg-ckpt-fallback" (fun dir ->
          let label = Printf.sprintf "checkpoint_jobs %d" jobs in
          let config = { (durable_cfg (if jobs = 0 then 0 else 4)) with checkpoint_jobs = jobs } in
          let d, _ = Durable.open_ ~config ~index:small ~dir () in
          let m = Model.create () in
          churn_store d m ~from:0 12;
          Durable.checkpoint d;
          corrupt_middle (fst (List.hd (Snapshot.list ~dir)));
          let fallbacks = store_counter "checkpoint_fallbacks" in
          if jobs = 0 then begin
            churn_store d m ~from:12 5;
            Durable.checkpoint d
          end
          else begin
            (* a background fold of the corrupt base fails; the writer
               falls back at a later batch boundary *)
            let i = ref 12 in
            while store_counter "checkpoint_fallbacks" = fallbacks && !i < 400 do
              churn_store d m ~from:!i 1;
              incr i;
              Thread.delay 0.002
            done
          end;
          Alcotest.(check int) (label ^ ": one fallback") (fallbacks + 1)
            (store_counter "checkpoint_fallbacks");
          churn_store d m ~from:500 2;
          Durable.kill d ~torn:true;
          recover_matches ~label ~dir m))
    [ 0; 1 ]

(* A base that decodes but disagrees with the index (a valid snapshot
   one document short) must fail the checkpoint loudly and write
   nothing. *)
let test_checkpoint_refuses_disagreeing_fold () =
  with_dir "dsdg-ckpt-mismatch" (fun dir ->
      let d, _ = Durable.open_ ~config:(durable_cfg 0) ~index:small ~dir () in
      let m = Model.create () in
      churn_store d m ~from:0 9;
      Durable.checkpoint d;
      let base = fst (List.hd (Snapshot.list ~dir)) in
      let dump, serial = Snapshot.load base in
      let short = Array.sub dump.Di.dm_docs 1 (Array.length dump.Di.dm_docs - 1) in
      ignore (Snapshot.save ~dir ~wal_serial:serial { dump with Di.dm_docs = short });
      churn_store d m ~from:9 3;
      let failures = store_counter "checkpoint_failures" in
      (match Durable.checkpoint d with
      | () -> Alcotest.fail "a fold that disagrees with the index was written"
      | exception Durable.Checkpoint_mismatch _ -> ());
      Alcotest.(check int) "counted" (failures + 1) (store_counter "checkpoint_failures");
      Alcotest.(check (list int)) "no new snapshot" [ serial ] (List.map snd (Snapshot.list ~dir));
      Durable.close d)

(* Epochs a drain publishes are not in the log: the fold's cross-check
   allows for them and the snapshot records the published epoch. *)
let test_checkpoint_across_drains () =
  with_dir "dsdg-ckpt-drains" (fun dir ->
      let d, _ = Durable.open_ ~config:(durable_cfg 3) ~index:small ~dir () in
      let idx = Durable.index d in
      let m = Model.create () in
      for i = 0 to 59 do
        churn_store d m ~from:i 1;
        if i mod 4 = 0 then Di.drain idx
      done;
      Alcotest.(check bool) "drains published epochs" true (Di.drain_epochs idx > 0);
      let epoch = Di.view_epoch (Di.view idx) in
      Durable.checkpoint d;
      Durable.close d;
      let d2, info = Durable.open_ ~dir () in
      Alcotest.(check int) "nothing replayed" 0 info.Recovery.ri_replayed;
      Alcotest.(check int) "epoch" epoch (Di.view_epoch (Di.view (Durable.index d2)));
      assert_matches_model ~label:"drained" (Durable.index d2) m ~inserts:(Model.inserted m);
      Durable.close d2)

(* A checkpoint that comes due inside a group commit waits for the
   batch's end: every record of the batch is then in the index, so the
   fold agrees with it and the compacted log loses none of them. *)
let test_checkpoint_due_mid_batch () =
  List.iter
    (fun jobs ->
      with_dir "dsdg-ckpt-batch" (fun dir ->
          let config = { (durable_cfg 3) with checkpoint_jobs = jobs } in
          let d, _ = Durable.open_ ~config ~index:small ~dir () in
          let m = Model.create () in
          for b = 0 to 14 do
            let ops =
              [ Trace.Insert (Printf.sprintf "batch %d a" b); Trace.Insert (Printf.sprintf "batch %d b" b) ]
              @ if b > 0 then [ Trace.Delete (2 * b - 1) ] else []
            in
            List.iter
              (fun op ->
                match op with
                | Trace.Insert s -> ignore (Model.insert m s)
                | Trace.Delete id -> ignore (Model.delete m id)
                | _ -> ())
              ops;
            ignore (Durable.apply_batch d ops)
          done;
          Durable.kill d ~torn:false;
          recover_matches ~label:(Printf.sprintf "checkpoint_jobs %d" jobs) ~dir m))
    [ 0; 1 ]

(* A store written at format version 1 (per-component sections with
   deletion bits, a WAL tail after the newest snapshot) opens, answers
   as it did, and writes the current format at its next checkpoint. *)
let test_parent_format_store () =
  with_dir "dsdg-v1" (fun dir ->
      Snapshot.ensure_dir dir;
      let fixture = Filename.concat (Filename.dirname Sys.executable_name) "fixtures/v1-store" in
      Array.iter
        (fun f -> write_file (Filename.concat dir f) (read_file (Filename.concat fixture f)))
        (Sys.readdir fixture);
      let check_answers label idx =
        Alcotest.(check int) (label ^ ": docs") 37 (Di.doc_count idx);
        Alcotest.(check int) (label ^ ": symbols") 1255 (Di.total_symbols idx);
        Alcotest.(check int) (label ^ ": epoch") 45 (Di.view_epoch (Di.view idx));
        Alcotest.(check int) (label ^ ": #ab") 61 (Di.count idx "ab");
        Alcotest.(check int) (label ^ ": #abba") 5 (Di.count idx "abba");
        Alcotest.(check (list (pair int int))) (label ^ ": ?cabbage") [ (40, 5) ]
          (Di.search idx "cabbage");
        Alcotest.(check (list bool)) (label ^ ": deleted in the snapshot and the tail")
          [ false; false; false; false; true ]
          (List.map (Di.mem idx) [ 3; 7; 12; 20; 21 ]);
        Alcotest.(check (option string)) (label ^ ": extract") (Some "doc21")
          (Di.extract idx ~doc:21 ~off:0 ~len:5);
        Alcotest.(check int) (label ^ ": next id") 41 (Di.next_id idx)
      in
      let d, info = Durable.open_ ~dir () in
      Alcotest.(check (option string)) "recovered from the newest v1 snapshot"
        (Some (Filename.concat dir "snap-43.dsdg")) info.Recovery.ri_snapshot;
      Alcotest.(check int) "tail folded" 2 info.Recovery.ri_replayed;
      check_answers "v1" (Durable.index d);
      Durable.checkpoint d;
      Durable.close d;
      let path, serial = List.hd (Snapshot.list ~dir) in
      Alcotest.(check int) "checkpoint serial" 45 serial;
      let version, sections = Codec.read_file ~path ~kind:"snapshot" in
      Alcotest.(check int) "written at the current version" Codec.format_version version;
      Alcotest.(check (list string)) "flat sections" [ "store"; "meta"; "docs" ] (List.map fst sections);
      let d2, info2 = Durable.open_ ~dir () in
      Alcotest.(check int) "nothing replayed" 0 info2.Recovery.ri_replayed;
      check_answers "reopened" (Durable.index d2);
      Durable.close d2)

(* --- folded recovery = per-op replay --- *)

(* The reference the WAL fold must equal: the newest snapshot restored
   bare (or an empty index), then every WAL mutation at or after the
   snapshot serial applied one at a time through the update path. *)
let replay_reference ~index ~dir =
  let idx, serial =
    match Snapshot.list ~dir with
    | (path, _) :: _ ->
      let dump, serial = Snapshot.load path in
      (Di.restore ~index dump, serial)
    | [] -> (Di.create ~index (), 0)
  in
  let wal = Recovery.wal_path ~dir in
  if Sys.file_exists wal then
    List.iter
      (fun (s, (op : Trace.op)) ->
        if s >= serial then
          match op with
          | Trace.Insert text -> ignore (Di.insert idx text)
          | Trace.Delete id -> ignore (Di.delete idx id)
          | _ -> ())
      (Wal.read wal).Wal.wc_ops;
  idx

(* Log [pre], checkpoint (or not), log [tail], crash; then recover
   through [Recovery] and through the per-op reference, and require
   the same epoch, ids, texts, next id and query answers, a clean
   oracle, and agreement with the model. [snap_doc] names a document the
   caller expects the snapshot to hold. *)
let check_fold ~label ~index ?(checkpoint = true) ?(torn = false) ?snap_doc pre tail =
  with_dir "dsdg-fold" (fun dir ->
      let config = { (durable_cfg 0) with Durable.sync = Wal.Never } in
      let d, _ = Durable.open_ ~config ~index ~dir () in
      let m = Model.create () in
      let apply (op : Trace.op) =
        match op with
        | Trace.Insert s -> Alcotest.(check int) (label ^ ": id") (Model.insert m s) (Durable.insert d s)
        | Trace.Delete id ->
          Alcotest.(check bool) (label ^ ": delete") (Model.delete m id) (Durable.delete d id)
        | _ -> ()
      in
      List.iter apply pre;
      if checkpoint then Durable.checkpoint d;
      List.iter apply tail;
      Durable.kill d ~torn;
      Option.iter
        (fun id ->
          let dump, _ = Snapshot.load (fst (List.hd (Snapshot.list ~dir))) in
          Alcotest.(check bool) (label ^ ": snapshot holds the doc") true
            (Array.exists (fun (i, _) -> i = id) dump.Di.dm_docs))
        snap_doc;
      let reference = replay_reference ~index ~dir in
      let folded, info = Recovery.open_or_recover ~index ~dir () in
      Alcotest.(check int) (label ^ ": records applied")
        (List.length (if checkpoint then tail else pre @ tail))
        info.Recovery.ri_replayed;
      Alcotest.(check bool) (label ^ ": torn record reported") torn info.Recovery.ri_truncated;
      Alcotest.(check (list string)) (label ^ ": oracle") []
        (Dsdg_check.Oracle.check (Dsdg_check.Oracle.create ()) folded);
      (* Transformation 1 purges eagerly, so at rest no sub-collection is
         past its purge threshold -- the oracle allows a slack of tau *)
      if index.variant <> Di.Worst_case then
        List.iter
          (fun (name, live, dead) ->
            if
              Dsdg_core.Semi_static.purge_threshold_exceeded ~dead_syms:dead
                ~total_symbols:(live + dead) ~tau:index.tau
            then Alcotest.failf "%s: %s left past its purge threshold (%d dead, %d live)" label name dead live)
          (Di.probe folded).Di.pr_census;
      Alcotest.(check int) (label ^ ": epoch")
        (Di.view_epoch (Di.view reference))
        (Di.view_epoch (Di.view folded));
      assert_matches_model ~label folded m ~inserts:(Model.inserted m);
      let patterns =
        "ab" :: "cd" :: "d"
        :: List.filteri (fun i _ -> i < 8)
             (List.map (fun (_, text) -> String.sub text 0 (min 3 (String.length text))) (Model.live m))
      in
      List.iter
        (fun p ->
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s: search %S" label p)
            (Di.search reference p) (Di.search folded p);
          Alcotest.(check int) (Printf.sprintf "%s: count %S" label p) (Di.count reference p)
            (Di.count folded p))
        patterns;
      let next = Model.insert m "the next document" in
      Alcotest.(check int) (label ^ ": reference next id") next (Di.insert reference "the next document");
      Alcotest.(check int) (label ^ ": folded next id") next (Di.insert folded "the next document");
      Di.close reference;
      Di.close folded)

let fold_doc st = String.init (3 + Random.State.int st 22) (fun _ -> "abcd".[Random.State.int st 4])
let fixed_doc i = Printf.sprintf "doc%03d abcdabcd %s" i (String.make (i mod 5) 'b')

(* A random stream: inserts, and deletes aimed at live, dead, recently
   inserted and never-assigned ids alike. *)
let fold_ops st ~first_id n =
  let next = ref first_id in
  List.init n (fun _ ->
      if !next = 0 || Random.State.int st 100 < 45 then begin
        incr next;
        Trace.Insert (fold_doc st)
      end
      else
        Trace.Delete
          (match Random.State.int st 4 with
          | 0 -> max 0 (!next - 1 - Random.State.int st 4)
          | 1 -> !next + Random.State.int st 3
          | _ -> Random.State.int st !next))

let inserts ops = List.length (List.filter (function Trace.Insert _ -> true | _ -> false) ops)

let test_fold_equals_replay variant backend () =
  let index = { small with variant; backend } in
  let label = variant_name variant ^ "/" ^ backend_name backend in
  let check = check_fold ~index in
  let pre = List.init 12 (fun i -> Trace.Insert (fixed_doc i)) @ [ Trace.Delete 3 ] in
  check ~label:(label ^ " empty tail") pre [];
  check ~label:(label ^ " wal, no snapshot") ~checkpoint:false pre
    [ Trace.Insert "x"; Trace.Delete 12; Trace.Delete 5 ];
  check ~label:(label ^ " delete of a tail insert") pre
    [ Trace.Insert "short lived"; Trace.Insert "kept"; Trace.Delete 12 ];
  check ~label:(label ^ " double delete") pre
    [ Trace.Delete 0; Trace.Delete 0; Trace.Insert "y"; Trace.Delete 12; Trace.Delete 12; Trace.Delete 3 ];
  check ~label:(label ^ " never-assigned id") pre
    [ Trace.Delete 999; Trace.Delete 13; Trace.Insert "z"; Trace.Delete 14 ];
  (* a delete of a document the snapshot holds, the last one inserted
     before the checkpoint *)
  check ~label:(label ^ " delete of a snapshot doc") ~snap_doc:13
    (pre @ [ Trace.Insert "q"; Trace.Insert "r" ])
    [ Trace.Delete 13; Trace.Insert "w" ];
  check ~label:(label ^ " torn final record") ~torn:true pre
    [ Trace.Insert "before the tear"; Trace.Delete 1 ];
  check ~label:(label ^ " live above 2 nf")
    (List.init 4 (fun i -> Trace.Insert (fixed_doc i)))
    (List.init 60 (fun i -> Trace.Insert (fixed_doc (100 + i))) @ [ Trace.Delete 2 ]);
  check ~label:(label ^ " live below nf/2")
    (List.init 80 (fun i -> Trace.Insert (fixed_doc i)))
    (Trace.Insert "survivor" :: List.init 76 (fun i -> Trace.Delete i));
  for seed = 1 to 4 do
    let st = Random.State.make [| seed; Hashtbl.hash label |] in
    let pre = fold_ops st ~first_id:0 (10 + Random.State.int st 40) in
    let tail = fold_ops st ~first_id:(inserts pre) (5 + Random.State.int st 60) in
    check
      ~label:(Printf.sprintf "%s random seed %d" label seed)
      ~checkpoint:(seed <> 4) ~torn:(seed mod 2 = 0) pre tail
  done

let suite =
  [
    Alcotest.test_case "codec primitives round-trip" `Quick test_codec_primitives;
    Alcotest.test_case "crc32 check vector" `Quick test_crc32_vector;
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot corruption rejected" `Quick test_snapshot_corruption_rejected;
    Alcotest.test_case "snapshot truncation rejected" `Quick test_snapshot_truncation_rejected;
    Alcotest.test_case "relation codec round-trip" `Quick test_relation_roundtrip;
    Alcotest.test_case "dump/restore across variants x backends" `Quick test_dump_restore_matrix;
    Alcotest.test_case "wal round-trip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal torn tail dropped + truncated" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal interior corruption located" `Quick test_wal_interior_corruption_located;
    Alcotest.test_case "wal missing header rejected" `Quick test_wal_missing_header;
    Alcotest.test_case "trace load locates parse errors" `Quick test_trace_load_located_error;
    Alcotest.test_case "durable reopen preserves state" `Quick test_durable_reopen;
    Alcotest.test_case "recovery is idempotent" `Quick test_recovery_idempotent;
    Alcotest.test_case "background checkpointing" `Quick test_background_checkpoint;
    Alcotest.test_case "kill-point sweep vs model" `Quick test_kill_sweep_matrix;
    Alcotest.test_case "wal Every-n accounting across batch/compaction/reopen" `Quick
      test_wal_every_n_accounting;
    Alcotest.test_case "wal group commit: one fsync per batch" `Quick
      test_wal_group_commit_single_fsync;
    Alcotest.test_case "durable apply_batch: order, rejection, replay" `Quick
      test_durable_apply_batch;
    Alcotest.test_case "sharded batch: one fsync per shard (K=3)" `Quick test_sharded_batch_fsyncs;
    Alcotest.test_case "checkpoint compaction leaks no fds" `Quick test_checkpoint_no_fd_leak;
    Alcotest.test_case "snapshot/wal gap detected" `Quick test_gap_detected;
    Alcotest.test_case "wal tail: mid-file start + chunk straddle + live appends" `Quick
      test_wal_tail_midfile_and_straddle;
    Alcotest.test_case "wal tail: torn final held back while writer alive" `Quick
      test_wal_tail_torn_final_writer_alive;
    Alcotest.test_case "wal archive segments round-trip + prune" `Quick test_wal_archive_roundtrip;
    Alcotest.test_case "read-only recovery never mutates disk" `Quick
      test_recovery_read_only_never_mutates;
    Alcotest.test_case "pinned-view backup opens at the pinned state" `Quick
      test_durable_pin_backup;
    Alcotest.test_case "checkpoint: corrupt base falls back" `Quick
      test_checkpoint_corrupt_base_fallback;
    Alcotest.test_case "checkpoint: mismatched fold refused" `Quick
      test_checkpoint_refuses_disagreeing_fold;
    Alcotest.test_case "checkpoint: fold across drains" `Quick test_checkpoint_across_drains;
    Alcotest.test_case "checkpoint: due mid-batch" `Quick
      test_checkpoint_due_mid_batch;
    Alcotest.test_case "v1 store opens and upgrades" `Quick
      test_parent_format_store;
  ]
  @ List.concat_map
      (fun variant ->
        List.map
          (fun backend ->
            Alcotest.test_case
              (Printf.sprintf "folded recovery = per-op replay %s/%s" (variant_name variant)
                 (backend_name backend))
              `Quick (test_fold_equals_replay variant backend))
          all_backends)
      all_variants
