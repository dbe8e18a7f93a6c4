(* CLI smoke tests against the real dsdg binary: the documented exit
   code scheme (0 success / 1 runtime / 2 data / 124 usage), and a
   serve -> load -> SIGTERM round-trip over a Unix socket that checks
   graceful drain, checkpoint-on-stop, and the BENCH JSON row. *)

module Durable = Dsdg_store.Durable
module Recovery = Dsdg_store.Recovery
module Client = Dsdg_serve.Client

let dsdg_bin =
  lazy
    (let candidates =
       (match Sys.getenv_opt "DSDG_BIN" with Some p -> [ p ] | None -> [])
       @ [ "../bin/dsdg.exe"; "_build/default/bin/dsdg.exe"; "bin/dsdg.exe" ]
     in
     match List.find_opt Sys.file_exists candidates with
     | Some p -> Some p
     | None -> None)

let with_bin f =
  match Lazy.force dsdg_bin with
  | Some bin -> f bin
  | None -> () (* binary not built in this context; nothing to smoke *)

let tmp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

let with_dir prefix f =
  let d = tmp_dir prefix in
  Fun.protect ~finally:(fun () -> Dsdg_check.Runner.reset_dir d) (fun () -> f d)

let dev_null_in () = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0
let dev_null_out () = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0

(* Run the binary to completion, stdin/stdout on /dev/null and stderr
   on [err] (default /dev/null), and return its exit code. *)
let run_exit ?(err = dev_null_out ()) bin args =
  let i = dev_null_in () and o = dev_null_out () and e = err in
  let pid = Unix.create_process bin (Array.of_list (bin :: args)) i o e in
  Unix.close i;
  Unix.close o;
  Unix.close e;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s -> Alcotest.failf "dsdg %s killed by signal %d" (String.concat " " args) s
  | Unix.WSTOPPED _ -> Alcotest.fail "dsdg stopped"

let check_exit bin ~what ~expect args =
  Alcotest.(check int) what expect (run_exit bin args)

(* [check_exit], and the captured stderr must contain [says]. *)
let check_exit_says bin ~what ~expect ~says args =
  let path = Filename.temp_file "dsdg-cli-stderr" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let err = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  Alcotest.(check int) what expect (run_exit ~err bin args);
  let text = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length says in
  let rec found i = i + n <= String.length text && (String.sub text i n = says || found (i + 1)) in
  Alcotest.(check bool) (Printf.sprintf "%s: stderr names %s" what says) true (found 0)

(* Run the binary with [input] on stdin; return its exit code and
   stdout lines. *)
let run_lines bin ~input args =
  let inp = Filename.temp_file "dsdg-cli-in" ".txt"
  and out = Filename.temp_file "dsdg-cli-out" ".txt" in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ inp; out ]) @@ fun () ->
  Out_channel.with_open_bin inp (fun oc -> Out_channel.output_string oc input);
  let i = Unix.openfile inp [ Unix.O_RDONLY ] 0
  and o = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0
  and e = dev_null_out () in
  let pid = Unix.create_process bin (Array.of_list (bin :: args)) i o e in
  List.iter Unix.close [ i; o; e ];
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | _ -> Alcotest.failf "dsdg %s died on a signal" (String.concat " " args)
  in
  (code, String.split_on_char '\n' (In_channel.with_open_bin out In_channel.input_all))

let test_exit_codes () =
  with_bin (fun bin ->
      check_exit bin ~what:"demo exits 0" ~expect:0 [ "demo"; "--ops"; "40" ];
      check_exit bin ~what:"clean fuzz exits 0" ~expect:0
        [ "fuzz"; "--ops"; "50"; "--variant"; "worst-case"; "--backend"; "fm" ];
      check_exit bin ~what:"unknown variant is usage (124)" ~expect:124
        [ "fuzz"; "--variant"; "bogus" ];
      check_exit bin ~what:"unknown backend is usage (124)" ~expect:124
        [ "fuzz"; "--backend"; "bogus" ];
      check_exit bin ~what:"impossible fault combo is usage (124)" ~expect:124
        [ "fuzz"; "--fault"; "stale-epoch"; "--ops"; "10" ];
      check_exit bin ~what:"bad --sync is usage (124)" ~expect:124
        [ "save"; "/nonexistent-store"; "/dev/null"; "--sync"; "sometimes" ];
      check_exit bin ~what:"load without server exits 1" ~expect:1
        [ "load"; "--socket"; "/nonexistent.sock"; "--clients"; "1"; "--ops"; "1" ];
      with_dir "dsdg-cli-corrupt" (fun dir ->
          Unix.mkdir dir 0o755;
          Out_channel.with_open_bin (Filename.concat dir "wal.log") (fun oc ->
              Out_channel.output_string oc "not a wal\n");
          check_exit bin ~what:"corrupt store is data error (2)" ~expect:2 [ "open"; dir ]);
      check_exit bin ~what:"cmdliner rejects unknown flags (124)" ~expect:124
        [ "demo"; "--no-such-flag" ];
      (* out-of-range index settings are usage errors caught before any
         work: no store directory is created, no socket bound *)
      let never_created = tmp_dir "dsdg-cli-invalid" in
      List.iter
        (fun (flag, cmd) ->
          check_exit bin ~what:(Printf.sprintf "%s %s 0 is usage (124)" cmd flag) ~expect:124
            (match cmd with
            | "index" -> [ "index"; "/dev/null"; flag; "0" ]
            | "serve" ->
              [ "serve"; never_created; "--socket"; never_created ^ ".sock"; flag; "0" ]
            | _ -> [ cmd; "--ops"; "10"; flag; "0" ]))
        (List.concat_map
           (fun flag -> List.map (fun cmd -> (flag, cmd)) [ "stats"; "index"; "fuzz"; "serve" ])
           [ "--tau"; "--sample" ]);
      Alcotest.(check bool) "serve made no store" false (Sys.file_exists never_created))

(* Spawn `dsdg serve`, wait for its socket, return the pid. *)
let spawn_serve bin dir sock args =
  let i = dev_null_in () and o = dev_null_out () and e = dev_null_out () in
  let pid =
    Unix.create_process bin
      (Array.of_list ((bin :: [ "serve"; dir; "--socket"; sock ]) @ args))
      i o e
  in
  Unix.close i;
  Unix.close o;
  Unix.close e;
  let deadline = Unix.gettimeofday () +. 15. in
  let rec wait_sock () =
    if Sys.file_exists sock then ()
    else if Unix.gettimeofday () > deadline then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.fail "serve did not create its socket in time"
    end
    else begin
      (* bail out early if the server died on startup *)
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _, st ->
        Alcotest.failf "serve exited prematurely (%s)"
          (match st with
          | Unix.WEXITED c -> Printf.sprintf "exit %d" c
          | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
          | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s));
      Thread.delay 0.05;
      wait_sock ()
    end
  in
  wait_sock ();
  pid

let test_serve_load_roundtrip () =
  with_bin (fun bin ->
      with_dir "dsdg-cli-serve" (fun dir ->
          let sock = Filename.concat (Filename.get_temp_dir_name ()) "dsdg-cli-serve.sock" in
          if Sys.file_exists sock then Sys.remove sock;
          let json = Filename.temp_file "dsdg-cli-bench" ".json" in
          Sys.remove json;
          let pid = spawn_serve bin dir sock [ "--max-batch"; "64" ] in
          Fun.protect
            ~finally:(fun () ->
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
              if Sys.file_exists json then Sys.remove json)
            (fun () ->
              (* direct client sanity against the subprocess *)
              let c = Client.connect (`Unix sock) in
              let id = Client.insert c "served by a subprocess" in
              Alcotest.(check int) "first doc id" 0 id;
              Alcotest.(check int) "count" 1 (Client.count c "subprocess");
              Client.close c;
              (* dsdg load against it: must exit 0 and write a BENCH row *)
              let i = dev_null_in () and o = dev_null_out () and e = dev_null_out () in
              let lpid =
                Unix.create_process_env bin
                  [| bin; "load"; "--socket"; sock; "--clients"; "3"; "--ops"; "120" |]
                  (Array.append (Unix.environment ()) [| "DSDG_BENCH_JSON=" ^ json |])
                  i o e
              in
              Unix.close i;
              Unix.close o;
              Unix.close e;
              (match snd (Unix.waitpid [] lpid) with
              | Unix.WEXITED 0 -> ()
              | st ->
                Alcotest.failf "dsdg load failed (%s)"
                  (match st with
                  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
                  | _ -> "signal"));
              let row = In_channel.with_open_bin json In_channel.input_all in
              Alcotest.(check bool) "bench row written" true
                (String.length row > 0
                && String.sub row 0 22 = "{\"bench\":\"serve/load\",");
              (* graceful shutdown on SIGTERM: exit 0 *)
              Unix.kill pid Sys.sigterm;
              (match snd (Unix.waitpid [] pid) with
              | Unix.WEXITED 0 -> ()
              | Unix.WEXITED c -> Alcotest.failf "serve exited %d on SIGTERM" c
              | _ -> Alcotest.fail "serve killed by signal");
              Alcotest.(check bool) "socket unlinked on drain" false (Sys.file_exists sock);
              (* the drain checkpointed: reopen replays nothing *)
              let store, info = Durable.open_ ~dir () in
              Alcotest.(check int) "zero replay" 0 info.Recovery.ri_replayed;
              Alcotest.(check bool) "documents survived" true
                (Dsdg_core.Dynamic_index.doc_count (Durable.index store) > 0);
              Durable.close store)))

(* Regression: a trace recorded under --shards / --readers / --tau
   carries a `% requires ...` hint; replaying it without those flags
   must be a usage error (124), not a silent run under the wrong
   configuration. With matching flags the replay runs (and passes). A
   recognized key whose value does not parse is a usage error naming
   the key; the retired seq= key is ignored. *)
let test_replay_hint_enforced () =
  with_bin (fun bin ->
      let module Trace = Dsdg_check.Trace in
      let ops = [ Trace.Insert "hinted ab"; Trace.Search "ab"; Trace.Count "ab" ] in
      let save hint =
        let path = Filename.temp_file "dsdg-cli-hint" ".trace" in
        Trace.save ~hint path ops;
        path
      in
      let requiring fields = save { Trace.no_hint with Trace.h_index = fields } in
      let sharded =
        save { Trace.no_hint with Trace.h_shards = Some 2; h_index = [ ("readers", "1") ] }
      in
      let readers_only = requiring [ ("readers", "1") ] in
      let spsi_hinted = requiring [ ("seq", "spsi") ] in
      let avl_hinted = requiring [ ("seq", "avl") ] in
      let tau_hinted = requiring [ ("tau", "3") ] in
      let tau_malformed = requiring [ ("tau", "abc") ] in
      let both_malformed =
        let path = Filename.temp_file "dsdg-cli-hint" ".trace" in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc "% requires tau=abc shards=two\n+ \"x\"\n");
        path
      in
      let unhinted = save Trace.no_hint in
      Fun.protect
        ~finally:(fun () ->
          List.iter Sys.remove
            [ sharded; readers_only; spsi_hinted; avl_hinted; tau_hinted; tau_malformed;
              both_malformed; unhinted ])
        (fun () ->
          check_exit bin ~what:"sharded trace without flags is usage (124)" ~expect:124
            [ "fuzz"; "--replay"; sharded ];
          check_exit bin ~what:"sharded trace with only --shards is usage (124)" ~expect:124
            [ "fuzz"; "--replay"; sharded; "--shards"; "2" ];
          check_exit bin ~what:"sharded trace with wrong K is usage (124)" ~expect:124
            [ "fuzz"; "--replay"; sharded; "--shards"; "4"; "--readers"; "1" ];
          check_exit bin ~what:"sharded trace with matching flags replays" ~expect:0
            [ "fuzz"; "--replay"; sharded; "--shards"; "2"; "--readers"; "1" ];
          check_exit bin ~what:"reader trace without --readers is usage (124)" ~expect:124
            [ "fuzz"; "--replay"; readers_only ];
          check_exit bin ~what:"reader trace with --readers replays" ~expect:0
            [ "fuzz"; "--replay"; readers_only; "--readers"; "1" ];
          check_exit bin ~what:"seq=spsi trace replays bare" ~expect:0
            [ "fuzz"; "--replay"; spsi_hinted ];
          check_exit bin ~what:"seq=avl trace replays bare" ~expect:0
            [ "fuzz"; "--replay"; avl_hinted ];
          check_exit bin ~what:"--seq-backend is an unknown option (124)" ~expect:124
            [ "fuzz"; "--replay"; spsi_hinted; "--seq-backend"; "spsi" ];
          check_exit bin ~what:"tau trace without --tau is usage (124)" ~expect:124
            [ "fuzz"; "--replay"; tau_hinted ];
          check_exit bin ~what:"tau trace with --tau 3 replays" ~expect:0
            [ "fuzz"; "--replay"; tau_hinted; "--tau"; "3" ];
          check_exit_says bin ~what:"malformed tau hint is usage (124)" ~expect:124
            ~says:"tau=abc" [ "fuzz"; "--replay"; tau_malformed ];
          check_exit_says bin ~what:"malformed tau hint under --tau is usage (124)" ~expect:124
            ~says:"tau=abc" [ "fuzz"; "--replay"; tau_malformed; "--tau"; "3" ];
          check_exit_says bin ~what:"malformed shards hint is usage (124)" ~expect:124
            ~says:"shards=two" [ "fuzz"; "--replay"; both_malformed ];
          check_exit bin ~what:"unhinted trace still replays bare" ~expect:0
            [ "fuzz"; "--replay"; unhinted ];
          check_exit bin ~what:"t3 is an accepted variant alias" ~expect:0
            [ "fuzz"; "--replay"; unhinted; "--variant"; "t3"; "--backend"; "fm" ]))

(* The relation plane: `dsdg graph` exit codes plus a snapshot
   round-trip, and `fuzz --rel` with its trace marker -- a rel trace
   (whatever backend an older one named in its rel= hint) replays under
   --rel and never through the document-fuzzer path, and a document
   trace never replays under --rel. *)
let test_graph_rel_cli () =
  with_bin (fun bin ->
      let snap = Filename.temp_file "dsdg-cli-graph" ".rel" in
      let junk = Filename.temp_file "dsdg-cli-junk" ".rel" in
      let module Rel_check = Dsdg_check.Rel_check in
      let rel_trace = Filename.temp_file "dsdg-cli-rel" ".trace" in
      Rel_check.save rel_trace
        [ Rel_check.Radd (3, 5); Rel_check.Rrelated (3, 5); Rel_check.Rpairs ];
      (* traces as older releases wrote them, naming a relation backend *)
      let old_trace value =
        let path = Filename.temp_file ("dsdg-cli-rel-" ^ value) ".trace" in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc
              (Printf.sprintf "%% requires rel=%s\n> 3 5\n< 3 5\n$ 3\n*\n" value));
        path
      in
      let k2_trace = old_trace "k2" and both_trace = old_trace "both" in
      let doc_trace = Filename.temp_file "dsdg-cli-doc" ".trace" in
      Dsdg_check.Trace.save ~hint:Dsdg_check.Trace.no_hint doc_trace
        [ Dsdg_check.Trace.Insert "plain document ab" ];
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
            [ snap; junk; rel_trace; k2_trace; both_trace; doc_trace ])
        (fun () ->
          (* graph subcommand *)
          check_exit bin ~what:"graph exits 0 and saves" ~expect:0
            [ "graph"; "--nodes"; "300"; "--edges"; "1500"; "--queries"; "20"; "--save"; snap ];
          check_exit bin ~what:"graph reloads the snapshot" ~expect:0
            [ "graph"; "--load"; snap; "--queries"; "10" ];
          check_exit bin ~what:"graph --rel-backend is an unknown option (124)" ~expect:124
            [ "graph"; "--rel-backend"; "str"; "--load"; snap ];
          check_exit bin ~what:"graph rejects nodes < 2 (124)" ~expect:124
            [ "graph"; "--nodes"; "1" ];
          Out_channel.with_open_bin junk (fun oc -> Out_channel.output_string oc "not a rel\n");
          check_exit bin ~what:"corrupt relation snapshot is data error (2)" ~expect:2
            [ "graph"; "--load"; junk ];
          (* fuzz --rel *)
          check_exit bin ~what:"clean rel fuzz exits 0" ~expect:0
            [ "fuzz"; "--rel"; "--ops"; "60"; "--seed"; "5" ];
          check_exit bin ~what:"fuzz --rel-backend is an unknown option (124)" ~expect:124
            [ "fuzz"; "--rel"; "--rel-backend"; "k2"; "--ops"; "40" ];
          check_exit bin ~what:"--rel with --follow is usage (124)" ~expect:124
            [ "fuzz"; "--rel"; "--follow"; "/nonexistent" ];
          (* the rel= marker, both directions *)
          check_exit bin ~what:"rel trace replays" ~expect:0
            [ "fuzz"; "--rel"; "--replay"; rel_trace ];
          check_exit bin ~what:"old rel=k2 trace replays bare" ~expect:0
            [ "fuzz"; "--rel"; "--replay"; k2_trace ];
          check_exit bin ~what:"old rel=both trace replays bare" ~expect:0
            [ "fuzz"; "--rel"; "--replay"; both_trace ];
          check_exit bin ~what:"rel trace through document path is usage (124)" ~expect:124
            [ "fuzz"; "--replay"; rel_trace ];
          check_exit bin ~what:"old rel=k2 trace through document path is usage (124)" ~expect:124
            [ "fuzz"; "--replay"; k2_trace ];
          check_exit bin ~what:"document trace through --rel is usage (124)" ~expect:124
            [ "fuzz"; "--rel"; "--replay"; doc_trace ]))

(* Sharded service plane: serve a K=2 store, drive dsdg load against
   it, SIGTERM-drain to exit 0, and reopen the shard stores to confirm
   the drain checkpointed every shard. *)
let test_sharded_serve_roundtrip () =
  with_bin (fun bin ->
      with_dir "dsdg-cli-shserve" (fun dir ->
          let sock = Filename.concat (Filename.get_temp_dir_name ()) "dsdg-cli-shserve.sock" in
          if Sys.file_exists sock then Sys.remove sock;
          let pid = spawn_serve bin dir sock [ "--shards"; "2"; "--max-batch"; "64" ] in
          Fun.protect
            ~finally:(fun () ->
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
            (fun () ->
              let c = Client.connect (`Unix sock) in
              let id = Client.insert c "served by two shards ab" in
              Alcotest.(check int) "first global id" 0 id;
              let id2 = Client.insert c "second sharded doc ab" in
              Alcotest.(check int) "sequential global id" 1 id2;
              Alcotest.(check int) "scatter-gather count" 2 (Client.count c "ab");
              Client.close c;
              check_exit bin ~what:"load against sharded server" ~expect:0
                [ "load"; "--socket"; sock; "--clients"; "2"; "--ops"; "80" ];
              Unix.kill pid Sys.sigterm;
              (match snd (Unix.waitpid [] pid) with
              | Unix.WEXITED 0 -> ()
              | Unix.WEXITED c -> Alcotest.failf "sharded serve exited %d on SIGTERM" c
              | _ -> Alcotest.fail "sharded serve killed by signal");
              Alcotest.(check bool) "socket unlinked on drain" false (Sys.file_exists sock);
              Alcotest.(check (option int)) "store records K=2" (Some 2)
                (Dsdg_shard.Sharded_index.store_shards ~dir);
              (* the drain checkpointed every shard: reopen replays nothing *)
              let sh, infos = Dsdg_shard.Sharded_index.open_store ~shards:2 ~dir () in
              Array.iteri
                (fun s info ->
                  Alcotest.(check int) (Printf.sprintf "shard %d zero replay" s) 0
                    info.Recovery.ri_replayed)
                infos;
              Alcotest.(check bool) "documents survived" true
                (Dsdg_shard.Sharded_index.doc_count sh > 0);
              Dsdg_shard.Sharded_index.close sh)))

(* Spawn `dsdg follow` against a leader socket and wait for its own
   serving socket to appear. *)
let spawn_follow bin ~leader_sock ~store ~sock =
  let i = dev_null_in () and o = dev_null_out () and e = dev_null_out () in
  let pid =
    Unix.create_process bin
      [| bin; "follow"; "--from-socket"; leader_sock; "--store"; store; "--socket"; sock |]
      i o e
  in
  Unix.close i;
  Unix.close o;
  Unix.close e;
  let deadline = Unix.gettimeofday () +. 15. in
  let rec wait_sock () =
    if Sys.file_exists sock then ()
    else if Unix.gettimeofday () > deadline then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.fail "follow did not create its socket in time"
    end
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _, Unix.WEXITED c -> Alcotest.failf "follow exited prematurely (exit %d)" c
      | _, _ -> Alcotest.fail "follow died prematurely");
      Thread.delay 0.05;
      wait_sock ()
    end
  in
  wait_sock ();
  pid

(* dsdg serve -> dsdg follow: the follower subprocess serves the
   leader's documents read-only, refuses writes with a redirect, and a
   SIGTERM leaves its directory as an ordinary promotable store. *)
let test_follow_smoke () =
  with_bin (fun bin ->
      with_dir "dsdg-cli-follow" (fun dir ->
          Unix.mkdir dir 0o755;
          let leader_dir = Filename.concat dir "leader" in
          let replica_dir = Filename.concat dir "replica" in
          let lsock = Filename.concat (Filename.get_temp_dir_name ()) "dsdg-cli-follow-l.sock" in
          let fsock = Filename.concat (Filename.get_temp_dir_name ()) "dsdg-cli-follow-f.sock" in
          List.iter (fun s -> if Sys.file_exists s then Sys.remove s) [ lsock; fsock ];
          let lpid = spawn_serve bin leader_dir lsock [] in
          Fun.protect
            ~finally:(fun () ->
              (try Unix.kill lpid Sys.sigkill with Unix.Unix_error _ -> ());
              try ignore (Unix.waitpid [] lpid) with Unix.Unix_error _ -> ())
            (fun () ->
              let lc = Client.connect (`Unix lsock) in
              ignore (Client.insert lc "followed doc one ab");
              ignore (Client.insert lc "followed doc two ab");
              let fpid = spawn_follow bin ~leader_sock:lsock ~store:replica_dir ~sock:fsock in
              Fun.protect
                ~finally:(fun () ->
                  (try Unix.kill fpid Sys.sigkill with Unix.Unix_error _ -> ());
                  try ignore (Unix.waitpid [] fpid) with Unix.Unix_error _ -> ())
                (fun () ->
                  let fc = Client.connect (`Unix fsock) in
                  (* replication is asynchronous: poll until caught up *)
                  let deadline = Unix.gettimeofday () +. 15. in
                  while
                    Client.count fc "ab" < 2
                    && (Unix.gettimeofday () < deadline
                       || Alcotest.fail "replica never served the leader's docs")
                  do
                    Thread.delay 0.05
                  done;
                  Alcotest.(check (list (pair int int))) "replica answers = leader answers"
                    (Client.search lc "ab") (Client.search fc "ab");
                  (* writes bounce with a redirect naming the leader *)
                  (match Client.insert fc "refused" with
                  | _ -> Alcotest.fail "follower accepted a write"
                  | exception Client.Server_error reason ->
                    Alcotest.(check bool)
                      (Printf.sprintf "redirect names leader (%s)" reason)
                      true
                      (let nl = String.length lsock and dl = String.length reason in
                       let rec go i = i + nl <= dl && (String.sub reason i nl = lsock || go (i + 1)) in
                       go 0));
                  Client.close fc;
                  Client.close lc;
                  (* SIGTERM: clean exit, replica is an ordinary store *)
                  Unix.kill fpid Sys.sigterm;
                  (match snd (Unix.waitpid [] fpid) with
                  | Unix.WEXITED 0 -> ()
                  | Unix.WEXITED c -> Alcotest.failf "follow exited %d on SIGTERM" c
                  | _ -> Alcotest.fail "follow killed by signal");
                  let store, _ = Durable.open_ ~dir:replica_dir () in
                  Alcotest.(check int) "promoted replica has both docs" 2
                    (Dsdg_core.Dynamic_index.doc_count (Durable.index store));
                  Durable.close store))))

(* dsdg save --pinned: the backup holds the pre-save state while the
   save itself lands the new files in the live store. *)
let test_save_pinned_smoke () =
  with_bin (fun bin ->
      with_dir "dsdg-cli-pinned" (fun dir ->
          Unix.mkdir dir 0o755;
          let store_dir = Filename.concat dir "store" in
          let backup_dir = Filename.concat dir "backup" in
          let file name text =
            let p = Filename.concat dir name in
            Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc text);
            p
          in
          let f1 = file "one.txt" "the first saved document" in
          let f2 = file "two.txt" "the second saved document" in
          check_exit bin ~what:"first save" ~expect:0 [ "save"; store_dir; f1 ];
          check_exit bin ~what:"save --pinned" ~expect:0
            [ "save"; store_dir; f2; "--pinned"; backup_dir ];
          (* live store: both documents; backup: only the pre-save one *)
          let store, _ = Durable.open_ ~dir:store_dir () in
          Alcotest.(check int) "live store has both" 2
            (Dsdg_core.Dynamic_index.doc_count (Durable.index store));
          Durable.close store;
          let bk, info = Durable.open_ ~dir:backup_dir () in
          Alcotest.(check int) "backup replays nothing" 0 info.Recovery.ri_replayed;
          let idx = Durable.index bk in
          Alcotest.(check int) "backup holds the pre-save state" 1
            (Dsdg_core.Dynamic_index.doc_count idx);
          Alcotest.(check int) "backup finds the first doc" 1
            (Dsdg_core.Dynamic_index.count idx "first");
          Durable.close bk;
          (* sharded stats over a store surfaces the composite epoch,
             and heads each shard's engine scope with its shard *)
          let code, lines =
            run_lines bin ~input:""
              [ "stats"; "--store"; Filename.concat dir "shstats"; "--shards"; "2"; "--ops"; "40" ]
          in
          Alcotest.(check int) "stats --store --shards" 0 code;
          List.iter
            (fun h -> Alcotest.(check bool) (h ^ " heads a scope") true (List.mem h lines))
            [ "[shard 0: transform2/fm]"; "[shard 1: transform2/fm]" ]))

let starts p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p

(* The answer lines of an interactive session: after the "indexed"
   header, before the stats trailer. *)
let answers lines =
  let rec drop = function [] -> [] | l :: rest -> if starts "indexed " l then rest else drop rest in
  let rec take = function
    | [] -> []
    | l :: rest -> if starts "documents :" l then [] else l :: take rest
  in
  take (drop lines)

(* One interactive script, malformed ids included, through `dsdg index`
   four ways -- in memory and over a store, at K=1 and K=2: every
   backing is the same collection, so every answer line is identical. *)
let test_repl_four_backings () =
  with_bin (fun bin ->
      with_dir "dsdg-cli-repl" (fun dir ->
          Unix.mkdir dir 0o755;
          let file = Filename.concat dir "docs.txt" in
          Out_channel.with_open_bin file (fun oc ->
              Out_channel.output_string oc "banana bandana\ncabana\nananas split\n");
          let script =
            "+anagram banana\n?ana\n#an\n-1\n-1\n-abc\n=0 1 4\n=x 0 1\n=0 1\n=9 0 2\n?\n#zz\n.\n"
          in
          let run name args =
            let code, lines = run_lines bin ~input:script ("index" :: file :: args) in
            Alcotest.(check int) (name ^ " exits 0") 0 code;
            answers lines
          in
          let store k =
            [ "--store"; Filename.concat dir (Printf.sprintf "s%d" k); "--shards"; string_of_int k ]
          in
          let mem1 = run "memory K=1" [] in
          Alcotest.(check bool) "malformed delete gets the usage line" true
            (List.mem "usage: -ID" mem1);
          Alcotest.(check bool) "malformed extract gets the usage line" true
            (List.mem "usage: =ID OFF LEN" mem1);
          Alcotest.(check bool) "the extract answers" true (List.mem "\"anan\"" mem1);
          List.iter
            (fun (name, args) ->
              Alcotest.(check (list string))
                (name ^ " answers = memory K=1 answers")
                mem1 (run name args))
            [ ("memory K=2", [ "--shards"; "2" ]); ("store K=1", store 1); ("store K=2", store 2) ]))

(* A store directory is opened in one place, at any K: `save` appends
   to a K=2 store and `open` reads K from it and counts the new
   document; a --shards flag that disagrees with the directory is
   usage (124), names the K on disk and leaves the directory
   byte-identical; a K=2 root holds a one-line header; a version-1
   sharded store is refused as data (2); a K=1 store keeps the
   single-store layout (no shard.meta), and `~E0,...,E(K-1)` reads it
   as of the epoch vector its trailer printed. *)
let test_store_layout () =
  with_bin (fun bin ->
      with_dir "dsdg-cli-layout" (fun dir ->
          Unix.mkdir dir 0o755;
          let file = Filename.concat dir "docs.txt" in
          Out_channel.with_open_bin file (fun oc ->
              Out_channel.output_string oc "alpha beta\ngamma\n");
          let store = Filename.concat dir "k2" in
          check_exit bin ~what:"index a K=2 store" ~expect:0
            [ "index"; "--shards"; "2"; "--store"; store; file ];
          let rec files d =
            Sys.readdir d |> Array.to_list |> List.sort compare
            |> List.concat_map (fun f ->
                   let p = Filename.concat d f in
                   if Sys.is_directory p then files p
                   else [ (p, In_channel.with_open_bin p In_channel.input_all) ])
          in
          let before = files store in
          check_exit_says bin ~what:"K=1 stats onto a K=2 store is usage (124)" ~expect:124
            ~says:"K=2" [ "stats"; "--store"; store; "--ops"; "20" ];
          check_exit_says bin ~what:"wrong --shards names the K on disk (124)" ~expect:124
            ~says:"pass --shards 2" [ "index"; "--shards"; "3"; "--store"; store; file ];
          Alcotest.(check bool) "refused commands left the store byte-identical" true
            (before = files store);
          let more = Filename.concat dir "more.txt" in
          Out_channel.with_open_bin more (fun oc -> Out_channel.output_string oc "alpha again\n");
          check_exit bin ~what:"save onto a K=2 store" ~expect:0 [ "save"; store; more ];
          let code, lines = run_lines bin ~input:"?alpha\n.\n" [ "open"; store ] in
          Alcotest.(check int) "open reads K from the store (exit 0)" 0 code;
          Alcotest.(check bool) "open serves the saved document" true
            (List.mem "2 occurrence(s)" lines
            && List.mem "documents : 3" lines
            && List.exists (starts "sharded: 2 shard stores") lines);
          Alcotest.(check string) "the K=2 header" "dsdg-shard 2 2\n"
            (In_channel.with_open_bin (Filename.concat store "shard.meta") In_channel.input_all);
          let v1 = Filename.concat (Filename.dirname Sys.executable_name) "fixtures/v1-shard2-store" in
          check_exit_says bin ~what:"open refuses a version-1 sharded store (2)" ~expect:2
            ~says:"a version-1 sharded store" [ "open"; v1 ];
          let k1 = Filename.concat dir "k1" in
          check_exit bin ~what:"index a K=1 store" ~expect:0 [ "index"; "--store"; k1; file ];
          Alcotest.(check bool) "K=1 writes no shard.meta" false
            (Sys.file_exists (Filename.concat k1 "shard.meta"));
          check_exit_says bin ~what:"--shards 2 onto a K=1 store is usage (124)" ~expect:124
            ~says:"pass --shards 1" [ "index"; "--shards"; "2"; "--store"; k1; file ];
          let session input =
            let code, lines = run_lines bin ~input [ "open"; k1; "--retain-epochs"; "4" ] in
            Alcotest.(check int) "open K=1 exits 0" 0 code;
            lines
          in
          let epochs =
            match List.find_opt (starts "epochs    : ") (session ".\n") with
            | Some l -> List.hd (String.split_on_char ' ' (String.sub l 12 (String.length l - 12)))
            | None -> Alcotest.fail "no epochs line in the trailer"
          in
          let lines = session (Printf.sprintf "+alpha later\n~%s ?alpha\n?alpha\n.\n" epochs) in
          Alcotest.(check bool) "as-of reads the opened state, live the new one" true
            (List.mem (Printf.sprintf "1 occurrence(s) as of %s" epochs) lines
            && List.mem "2 occurrence(s)" lines)))

(* The planted scheduling fault end to end through the binary: fuzz
   catches it (exit 1) and saves a minimal trace, and replaying that
   trace with the hinted fault fails again. *)
let test_fuzz_fault_replay () =
  with_bin (fun bin ->
      with_dir "dsdg-cli-fuzz-fault" (fun dir ->
          Unix.mkdir dir 0o755;
          let shape = [ "--variant"; "worst-case"; "--backend"; "fm" ] in
          check_exit bin ~what:"planted fault caught (exit 1)" ~expect:1
            ([ "fuzz"; "--fault"; "skip-top-clean"; "--profile"; "churny"; "--ops"; "600";
               "--streams"; "10"; "--trace-dir"; dir ]
            @ shape);
          let trace =
            match
              List.filter
                (fun f -> Filename.check_suffix f ".trace")
                (Array.to_list (Sys.readdir dir))
            with
            | [ f ] -> Filename.concat dir f
            | fs -> Alcotest.failf "expected one saved trace, found %d" (List.length fs)
          in
          check_exit bin ~what:"replay without the hinted fault is usage (124)" ~expect:124
            ([ "fuzz"; "--replay"; trace ] @ shape);
          check_exit bin ~what:"replay with the hinted fault fails (exit 1)" ~expect:1
            ([ "fuzz"; "--replay"; trace; "--fault"; "skip-top-clean" ] @ shape)))

(* Worker settings past the runtime's domain limit are usage errors,
   raised before any domain starts or any store directory is made. *)
let test_domain_budget_usage () =
  with_bin (fun bin ->
      let never_created = tmp_dir "dsdg-cli-budget" in
      let says = "128" in
      check_exit_says bin ~what:"stats --jobs 1000 is usage (124)" ~expect:124 ~says
        [ "stats"; "--ops"; "10"; "--jobs"; "1000" ];
      check_exit_says bin ~what:"8 shards x 16 jobs is usage (124)" ~expect:124 ~says
        [ "stats"; "--ops"; "10"; "--shards"; "8"; "--jobs"; "16" ];
      check_exit_says bin ~what:"8 shard stores x (15 jobs + checkpoint) is usage (124)" ~expect:124
        ~says [ "stats"; "--ops"; "10"; "--shards"; "8"; "--jobs"; "15"; "--store"; never_created ];
      check_exit_says bin ~what:"9 fuzz targets x 15 jobs is usage (124)" ~expect:124 ~says
        [ "fuzz"; "--ops"; "10"; "--jobs"; "15" ];
      Alcotest.(check bool) "no store made" false (Sys.file_exists never_created))

let suite =
  [
    Alcotest.test_case "exit codes: 0 / 1 / 2 / 124 scheme" `Slow test_exit_codes;
    Alcotest.test_case "follow: read replica subprocess, redirect, SIGTERM" `Slow
      test_follow_smoke;
    Alcotest.test_case "save --pinned: pre-save backup + sharded stats" `Slow
      test_save_pinned_smoke;
    Alcotest.test_case "replay hints: --shards/--readers enforced (124)" `Slow
      test_replay_hint_enforced;
    Alcotest.test_case "graph subcommand + fuzz --rel hint enforcement" `Slow test_graph_rel_cli;
    Alcotest.test_case "serve + load round-trip, SIGTERM drain" `Slow test_serve_load_roundtrip;
    Alcotest.test_case "sharded serve (K=2) + load round-trip, SIGTERM drain" `Slow
      test_sharded_serve_roundtrip;
    Alcotest.test_case "fuzz --fault: catch, save, replay (exit 1)" `Slow test_fuzz_fault_replay;
    Alcotest.test_case "interactive loop: one script, four backings" `Slow test_repl_four_backings;
    Alcotest.test_case "store layout: save, open and as-of at any K" `Slow test_store_layout;
    Alcotest.test_case "domain budget: over-limit workers are usage (124)" `Slow
      test_domain_budget_usage;
  ]
