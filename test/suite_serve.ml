(* Tests for the service plane (lib/serve): protocol round-trips and
   the bounded frame reader, server request handling over a Unix
   socket, malformed-frame isolation (connection dies, server does
   not), group-commit visibility under concurrent writers, graceful
   drain (stop -> checkpoint -> zero-replay reopen), and the
   kill-and-recover guarantee through the server path: every mutation
   acknowledged to a client survives crash recovery. *)

module Protocol = Dsdg_serve.Protocol
module Server = Dsdg_serve.Server
module Client = Dsdg_serve.Client
module Load_gen = Dsdg_serve.Load_gen
module Durable = Dsdg_store.Durable
module Recovery = Dsdg_store.Recovery
module Trace = Dsdg_check.Trace
module Di = Dsdg_core.Dynamic_index

let tmp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

let with_dir prefix f =
  let d = tmp_dir prefix in
  Fun.protect ~finally:(fun () -> Dsdg_check.Runner.reset_dir d) (fun () -> f d)

let sock_of dir = Filename.concat dir "dsdg.sock"

(* Start a server over a fresh store in [dir]; the server owns the
   store ([Server.stop] closes it). *)
let start_server ?config ?(sync = Dsdg_store.Wal.Always) dir =
  let store, _info =
    Dsdg_shard.Sharded_index.open_store ~config:{ Durable.default_config with sync } ~shards:1
      ~dir ()
  in
  Server.start ?config (Dsdg_shard.Sharded_index.subject store) (`Unix (sock_of dir))

let with_server ?config ?sync dir f =
  let srv = start_server ?config ?sync dir in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

(* --- protocol --- *)

let roundtrip_response r =
  match Protocol.parse_response (Protocol.response_to_string r) with
  | Ok r' -> r'
  | Error e -> Alcotest.failf "parse_response failed: %s" e

let test_protocol_response_roundtrip () =
  let check what sent expect =
    Alcotest.(check bool) what true (roundtrip_response sent = expect)
  in
  (* Id and Bool share Int's wire spelling: the verb-specific reading
     happens in the client, not in parse_response *)
  check "id" (Protocol.Id 7) (Protocol.Int 7);
  check "bool true" (Protocol.Bool true) (Protocol.Int 1);
  check "int" (Protocol.Int 42) (Protocol.Int 42);
  check "hits" (Protocol.Hits [ (0, 3); (2, 0) ]) (Protocol.Hits [ (0, 3); (2, 0) ]);
  check "hits empty" (Protocol.Hits []) (Protocol.Hits []);
  check "text with spaces and newline" (Protocol.Text "a b\nc\"d") (Protocol.Text "a b\nc\"d");
  check "none" Protocol.No_text Protocol.No_text;
  check "stats" (Protocol.Stats_of [ ("docs", 3); ("epoch", 9) ])
    (Protocol.Stats_of [ ("docs", 3); ("epoch", 9) ]);
  check "pong" Protocol.Pong Protocol.Pong;
  check "bye" Protocol.Bye Protocol.Bye;
  check "err" (Protocol.Err "no such \"thing\"") (Protocol.Err "no such \"thing\"")

let test_protocol_request_roundtrip () =
  let ok line =
    match Protocol.parse_request line with
    | Ok r -> Alcotest.(check string) line line (Protocol.request_to_string r)
    | Error e -> Alcotest.failf "parse_request %S failed: %s" line e
  in
  ok "+ \"hello world\\n\"";
  ok "- 7";
  ok "? \"pat\"";
  ok "# \"pat\"";
  ok "= 3 0 5";
  ok "@ 12";
  ok "stats";
  ok "ping";
  ok "quit";
  (match Protocol.parse_request "frobnicate 3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk verb parsed");
  match Protocol.parse_request "+ unquoted" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unquoted insert parsed"

let test_protocol_malformed_responses () =
  List.iter
    (fun line ->
      match Protocol.parse_response line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed response %S parsed" line)
    [ ""; "ok"; "ok hits 2 1"; "ok hits x"; "ok text noquote"; "ok stats k=v"; "yes" ]

(* The replication frames: repl polls and the rec/hb/snap/chunk batch
   vocabulary, including binary-safe record and chunk payloads. *)
let test_protocol_repl_roundtrip () =
  let req r =
    match Protocol.parse_request (Protocol.request_to_string r) with
    | Ok r' -> Alcotest.(check bool) (Protocol.request_to_string r) true (r' = r)
    | Error e -> Alcotest.failf "repl request round-trip failed: %s" e
  in
  req (Protocol.Repl { stream = "wal"; from = 0 });
  req (Protocol.Repl { stream = "wal3"; from = 712 });
  req (Protocol.Repl { stream = "meta"; from = 9 });
  List.iter
    (fun r -> Alcotest.(check bool) (Protocol.response_to_string r) true (roundtrip_response r = r))
    [ Protocol.Rec (0, {|+ "doc with \"quotes\" and spaces"|});
      Protocol.Rec (41, "- 7");
      Protocol.Rec (3, "I 12 1");
      Protocol.Hb { bound = 0; epoch = 0 };
      Protocol.Hb { bound = 917; epoch = 44 };
      Protocol.Snap { serial = 12; chunks = 3 };
      Protocol.Chunk "raw\nbytes\x00with newline and nul";
      Protocol.Chunk "" ];
  (* a record line is framed verbatim: a raw newline inside one would
     break framing, so the escaped spelling must survive the trip *)
  (match roundtrip_response (Protocol.Rec (5, {|+ "line\nbreak"|})) with
  | Protocol.Rec (5, line) -> Alcotest.(check string) "record verbatim" {|+ "line\nbreak"|} line
  | _ -> Alcotest.fail "rec frame changed shape");
  List.iter
    (fun line ->
      match Protocol.parse_response line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed repl frame %S parsed" line)
    [ "rec"; "rec x + \"a\""; "hb 3"; "hb x y"; "snap 1"; "chunk noquote" ];
  match Protocol.parse_request "repl wal" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "positionless repl poll parsed"

(* The bounded reader, against a socketpair. *)
let test_reader_bounds () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let r = Protocol.reader ~max_frame:8 b in
      (* two frames in one write, split across reads by the kernel or not *)
      ignore (Unix.write_substring a "one\ntwo\n" 0 8);
      Alcotest.(check bool) "frame 1" true (Protocol.read_frame r = `Frame "one");
      Alcotest.(check bool) "frame 2" true (Protocol.read_frame r = `Frame "two");
      (* an overlong frame poisons the reader *)
      ignore (Unix.write_substring a "waaaaay too long\n" 0 17);
      Alcotest.(check bool) "too long" true (Protocol.read_frame r = `Too_long);
      Alcotest.(check bool) "poisoned" true (Protocol.read_frame r = `Too_long);
      (* a fresh reader sees EOF mid-frame as EOF, partial dropped *)
      let a2, b2 = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      ignore (Unix.write_substring a2 "partial" 0 7);
      Unix.close a2;
      let r2 = Protocol.reader ~max_frame:64 b2 in
      Alcotest.(check bool) "mid-frame eof" true (Protocol.read_frame r2 = `Eof);
      Unix.close b2)

(* --- server basics --- *)

let test_serve_basic_ops () =
  with_dir "dsdg-serve-basic" (fun dir ->
      with_server dir (fun srv ->
          let c = Client.connect (`Unix (sock_of dir)) in
          Client.ping c;
          let id0 = Client.insert c "abracadabra" in
          let id1 = Client.insert c "candelabra" in
          Alcotest.(check (list int)) "ids" [ 0; 1 ] [ id0; id1 ];
          (* occurrence count: "abracadabra" holds two "abra"s *)
          Alcotest.(check int) "count abra" 3 (Client.count c "abra");
          let hits = Client.search c "abra" in
          Alcotest.(check bool) "search nonempty" true (List.length hits = 3);
          Alcotest.(check (option string)) "extract" (Some "cad") (Client.extract c ~doc:0 ~off:4 ~len:3);
          Alcotest.(check bool) "mem live" true (Client.mem c 0);
          Alcotest.(check bool) "delete" true (Client.delete c 0);
          Alcotest.(check bool) "delete again" false (Client.delete c 0);
          Alcotest.(check bool) "mem dead" false (Client.mem c 0);
          let stats = Client.stats c in
          Alcotest.(check (option int)) "stats docs" (Some 1) (List.assoc_opt "docs" stats);
          Alcotest.(check bool) "stats served" true (List.assoc "served" stats > 0);
          (* semantic error: empty pattern -> err, connection survives *)
          (match Client.count c "" with
          | _ -> Alcotest.fail "empty pattern accepted"
          | exception Client.Server_error _ -> ());
          Client.ping c;
          (* drain op is rejected but keeps the connection *)
          (match Client.raw c "!!" with
          | line -> Alcotest.(check bool) "drain rejected" true (String.length line > 3 && String.sub line 0 3 = "err")
          | exception e -> raise e);
          Client.ping c;
          Alcotest.(check bool) "ops served counted" true (Server.ops_served srv > 5);
          Client.close c))

let test_serve_malformed_frame_kills_connection_only () =
  with_dir "dsdg-serve-malformed" (fun dir ->
      with_server dir (fun _srv ->
          let addr = `Unix (sock_of dir) in
          let c1 = Client.connect addr in
          ignore (Client.insert c1 "before");
          (* malformed frame: err response, then EOF -- connection dead *)
          let line = Client.raw c1 "this is not a frame" in
          Alcotest.(check bool) "err reply" true (String.sub line 0 3 = "err");
          (match Client.ping c1 with
          | () -> Alcotest.fail "connection survived a malformed frame"
          | exception (Client.Protocol_error _ | Client.Server_error _ | Unix.Unix_error _) -> ());
          (* the server is fine: a fresh connection works *)
          let c2 = Client.connect addr in
          Alcotest.(check int) "server alive" 1 (Client.count c2 "before");
          Client.close c2))

let test_serve_max_frame_enforced () =
  with_dir "dsdg-serve-maxframe" (fun dir ->
      let config = { Server.default_config with max_frame = 64 } in
      with_server ~config dir (fun _srv ->
          let addr = `Unix (sock_of dir) in
          let c = Client.connect addr in
          let big = String.make 200 'x' in
          (match Client.insert c big with
          | _ -> Alcotest.fail "overlong frame accepted"
          | exception (Client.Server_error _ | Client.Protocol_error _ | Unix.Unix_error _) -> ());
          (* server alive, store untouched *)
          let c2 = Client.connect addr in
          Alcotest.(check int) "no doc landed" 0 (Client.count c2 "xxx");
          ignore (Client.insert c2 "small is fine");
          Client.close c2))

let test_serve_concurrent_writers () =
  with_dir "dsdg-serve-conc" (fun dir ->
      let n_threads = 4 and per = 20 in
      let acked = Array.make (n_threads * per) (-1) in
      with_server dir (fun _srv ->
          let addr = `Unix (sock_of dir) in
          let worker t () =
            let c = Client.connect addr in
            for i = 0 to per - 1 do
              let text = Printf.sprintf "writer %d item %d payload" t i in
              acked.((t * per) + i) <- Client.insert c text
            done;
            Client.close c
          in
          let threads = List.init n_threads (fun t -> Thread.create (worker t) ()) in
          List.iter Thread.join threads;
          (* every ack distinct and every doc visible to queries *)
          let sorted = Array.copy acked in
          Array.sort compare sorted;
          Array.iteri (fun i id -> Alcotest.(check int) "dense distinct ids" i id) sorted;
          let c = Client.connect addr in
          Alcotest.(check int) "all visible" (n_threads * per) (Client.count c "payload");
          Client.close c);
      (* stop checkpointed: reopen replays nothing and has everything *)
      let store, info = Durable.open_ ~dir () in
      Alcotest.(check int) "zero replay after graceful stop" 0 info.Recovery.ri_replayed;
      Alcotest.(check int) "docs after reopen" (n_threads * per) (Di.doc_count (Durable.index store));
      Durable.close store)

let test_serve_stop_idempotent_and_drain () =
  with_dir "dsdg-serve-stop" (fun dir ->
      let srv = start_server dir in
      let c = Client.connect (`Unix (sock_of dir)) in
      ignore (Client.insert c "doc");
      Server.stop srv;
      Server.stop srv;
      (* idle connection was shut down by the drain *)
      (match Client.ping c with
      | () -> Alcotest.fail "connection survived stop"
      | exception (Client.Protocol_error _ | Unix.Unix_error _) -> ());
      (* socket file is gone *)
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists (sock_of dir)))

(* --- kill-and-recover through the server path --- *)

let kill_recover_case ~torn () =
  with_dir "dsdg-serve-kill" (fun dir ->
      let n_threads = 3 and per = 15 in
      let acked = Array.make (n_threads * per) None in
      let srv = start_server ~sync:Dsdg_store.Wal.Always dir in
      let addr = `Unix (sock_of dir) in
      let worker t () =
        let c = Client.connect addr in
        for i = 0 to per - 1 do
          let text = Printf.sprintf "killer %d/%d survives" t i in
          let id = Client.insert c text in
          acked.((t * per) + i) <- Some (id, text)
        done;
        Client.close c
      in
      let threads = List.init n_threads (fun t -> Thread.create (worker t) ()) in
      List.iter Thread.join threads;
      (* crash: no drain, no checkpoint, no final fsync *)
      Server.kill srv ~torn;
      let idx, info = Recovery.open_or_recover ~dir () in
      Alcotest.(check bool) "torn tail handled" torn info.Recovery.ri_truncated;
      Array.iter
        (function
          | None -> Alcotest.fail "an insert was never acknowledged"
          | Some (id, text) ->
            Alcotest.(check bool) (Printf.sprintf "acked %d recovered" id) true (Di.mem idx id);
            Alcotest.(check (option string))
              (Printf.sprintf "acked %d text" id)
              (Some text)
              (Di.extract idx ~doc:id ~off:0 ~len:(String.length text)))
        acked;
      Di.close idx)

let test_kill_recover_clean () = kill_recover_case ~torn:false ()
let test_kill_recover_torn () = kill_recover_case ~torn:true ()

(* --- load generator --- *)

let test_load_gen_smoke () =
  with_dir "dsdg-serve-load" (fun dir ->
      with_server dir (fun _srv ->
          let r = Load_gen.run (`Unix (sock_of dir)) ~clients:3 ~ops:90 ~seed:42 in
          Alcotest.(check int) "all ops completed" 90 r.Load_gen.ops;
          Alcotest.(check int) "no errors" 0 r.Load_gen.errors;
          Alcotest.(check int) "clients" 3 r.Load_gen.clients;
          Alcotest.(check bool) "qps positive" true (r.Load_gen.qps > 0.);
          Alcotest.(check bool) "writes happened" true (r.Load_gen.writes > 0);
          Alcotest.(check bool) "queries happened" true (r.Load_gen.queries > 0);
          Alcotest.(check bool) "p50 <= p999" true (r.Load_gen.p50_us <= r.Load_gen.p999_us);
          Alcotest.(check bool) "report renders" true
            (String.length (Load_gen.report_to_string r) > 0)))

let test_load_gen_validation () =
  Alcotest.check_raises "clients < 1" (Invalid_argument "Load_gen.run: clients < 1") (fun () ->
      ignore (Load_gen.run (`Unix "/nonexistent") ~clients:0 ~ops:1 ~seed:0));
  Alcotest.check_raises "ops < 1" (Invalid_argument "Load_gen.run: ops < 1") (fun () ->
      ignore (Load_gen.run (`Unix "/nonexistent") ~clients:1 ~ops:0 ~seed:0))

let suite =
  [
    Alcotest.test_case "protocol: response round-trip" `Quick test_protocol_response_roundtrip;
    Alcotest.test_case "protocol: request round-trip" `Quick test_protocol_request_roundtrip;
    Alcotest.test_case "protocol: malformed responses rejected" `Quick test_protocol_malformed_responses;
    Alcotest.test_case "protocol: replication frames round-trip" `Quick test_protocol_repl_roundtrip;
    Alcotest.test_case "protocol: bounded reader" `Quick test_reader_bounds;
    Alcotest.test_case "serve: basic ops over unix socket" `Quick test_serve_basic_ops;
    Alcotest.test_case "serve: malformed frame kills connection only" `Quick
      test_serve_malformed_frame_kills_connection_only;
    Alcotest.test_case "serve: max_frame enforced" `Quick test_serve_max_frame_enforced;
    Alcotest.test_case "serve: concurrent writers, graceful stop" `Quick test_serve_concurrent_writers;
    Alcotest.test_case "serve: stop idempotent, drains connections" `Quick
      test_serve_stop_idempotent_and_drain;
    Alcotest.test_case "serve: kill -> recover keeps every acked write" `Quick test_kill_recover_clean;
    Alcotest.test_case "serve: kill (torn) -> recover keeps every acked write" `Quick
      test_kill_recover_torn;
    Alcotest.test_case "load: generator smoke" `Quick test_load_gen_smoke;
    Alcotest.test_case "load: argument validation" `Quick test_load_gen_validation;
  ]
