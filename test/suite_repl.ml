(* Replication tests: leader/follower convergence through a real
   cluster (K=1 and K=2), failover promotion sweeps, the planted-fault
   self-test of the divergence oracle, and the read-only replica
   engine's redirect discipline. *)

module Server = Dsdg_serve.Server
module Client = Dsdg_serve.Client
module Follower = Dsdg_serve.Follower
module Repl_check = Dsdg_serve.Repl_check
module Durable = Dsdg_store.Durable
module SI = Dsdg_shard.Sharded_index
module Runner = Dsdg_check.Runner
module Opgen = Dsdg_check.Opgen

let tmp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

let with_dir prefix f =
  let d = tmp_dir prefix in
  Fun.protect ~finally:(fun () -> Runner.reset_dir d) (fun () -> f d)

let check_converged what (o : Repl_check.outcome) =
  Alcotest.(check bool) (what ^ ": points exercised") true (o.Repl_check.rc_points > 1);
  Alcotest.(check string) (what ^ ": no divergence") ""
    (String.concat "; "
       (List.map (fun (n, d) -> Printf.sprintf "after %d ops: %s" n d) o.Repl_check.rc_failures))

let check_survived what (o : Runner.kill_outcome) =
  Alcotest.(check bool) (what ^ ": points exercised") true (o.Runner.kc_points > 1);
  Alcotest.(check string) (what ^ ": no lost acked write") ""
    (String.concat "; "
       (List.map
          (fun f -> Printf.sprintf "point %d: %s" f.Runner.kf_point f.Runner.kf_detail)
          o.Runner.kc_failures))

(* --- convergence: every quiesce point, replica = model --- *)

let test_convergence_single () =
  with_dir "dsdg-repl-conv1" (fun dir ->
      let ops = Opgen.generate ~seed:42 ~ops:60 () in
      check_converged "K=1"
        (Repl_check.convergence ~quiesce_every:16 ~checkpoint_every:24 ~dir ~ops ()))

let test_convergence_sharded () =
  with_dir "dsdg-repl-conv2" (fun dir ->
      let ops = Opgen.generate ~seed:43 ~ops:60 () in
      check_converged "K=2"
        (Repl_check.convergence ~shards:2 ~quiesce_every:16 ~dir ~ops ()))

(* Under --sync 8 the leader ships only what an fsync covered; its
   writer's idle flush must make an acked tail durable, or the replica
   never catches up at a quiesce point that is not a multiple of 8. *)
let test_convergence_lazy_sync () =
  with_dir "dsdg-repl-every8" (fun dir ->
      let ops = Opgen.generate ~seed:47 ~ops:50 () in
      check_converged "K=1 sync every 8"
        (Repl_check.convergence ~sync:(Dsdg_store.Wal.Every 8) ~quiesce_every:5
           ~checkpoint_every:7 ~dir ~ops ()))

(* A replica that falls behind the leader's checkpoint compaction is
   re-shipped from WAL archives (or re-seeded from a snapshot); either
   way it must still converge.  Aggressive checkpointing plus a churny
   stream exercises both paths. *)
let test_convergence_past_compaction () =
  with_dir "dsdg-repl-compact" (fun dir ->
      let ops = Opgen.generate ~profile:Opgen.churny ~seed:44 ~ops:80 () in
      check_converged "K=1 compacting"
        (Repl_check.convergence ~quiesce_every:40 ~checkpoint_every:8 ~dir ~ops ()))

(* --- the oracle's self-test: a planted replica fault MUST be caught --- *)

(* The fault never corrupts answers, only the cleaning schedule, so the
   replica's paper invariants must catch it: on the single index, and
   on every shard index of a K=2 replica. *)
let test_planted_fault_caught ~shards () =
  with_dir "dsdg-repl-fault" (fun dir ->
      let ops = Opgen.generate ~profile:Opgen.churny ~seed:5 ~ops:600 () in
      let o =
        Repl_check.convergence
          ~index:{ Dsdg_core.Index_config.default with fault = Some `Skip_top_clean } ~shards
          ~quiesce_every:100 ~dir ~ops ()
      in
      Alcotest.(check bool) "planted fault detected" true (o.Repl_check.rc_failures <> []);
      let detail = String.concat "; " (List.map snd o.Repl_check.rc_failures) in
      Alcotest.(check bool) "names the cleaning schedule" true
        (let has needle =
           let nl = String.length needle and dl = String.length detail in
           let rec go i = i + nl <= dl && (String.sub detail i nl = needle || go (i + 1)) in
           go 0
         in
         has "cleaning fell behind"))

(* --- failover: kill the leader, promote, every acked write survives --- *)

let test_failover_single () =
  with_dir "dsdg-repl-fo1" (fun dir ->
      let ops = Opgen.generate ~seed:45 ~ops:30 () in
      check_survived "K=1 failover" (Repl_check.failover_sweep ~stride:10 ~dir ~ops ()))

let test_failover_sharded () =
  with_dir "dsdg-repl-fo2" (fun dir ->
      let ops = Opgen.generate ~seed:46 ~ops:30 () in
      check_survived "K=2 failover"
        (Repl_check.failover_sweep ~shards:2 ~stride:10 ~dir ~ops ()))

(* A fresh K=1 replica of a leader that compacted past its archives is
   seeded with the leader's newest snapshot, re-seeding in place, and
   then keeps tailing.  Queries run through the re-seed without a lock,
   as a read-only server's connection threads do: none may fail, and
   each must answer the empty replica (0 hits) or a seeded one (the
   snapshot is at most two ops behind the leader's 31, so 27..30). *)
let test_fresh_replica_reseeds () =
  with_dir "dsdg-repl-seed" (fun dir ->
      let lsock = Filename.concat dir "leader.sock" in
      Unix.mkdir dir 0o755;
      let config = { Durable.default_config with checkpoint_every = 2 } in
      let store, _ = SI.open_store ~config ~shards:1 ~dir:(Filename.concat dir "leader") () in
      for i = 0 to 29 do
        ignore (SI.insert store (Printf.sprintf "seeded doc %d ana" i))
      done;
      ignore (SI.delete store 3);
      let leader = Server.start (SI.subject store) (`Unix lsock) in
      Fun.protect ~finally:(fun () -> Server.stop leader) @@ fun () ->
      let boots () =
        Option.value ~default:0
          (List.assoc_opt "snapshot_bootstraps" (Dsdg_obs.Obs.counters (Dsdg_obs.Obs.scope "repl")))
      in
      let boots0 = boots () in
      let fol = Follower.start ~leader:(`Unix lsock) ~dir:(Filename.concat dir "replica") () in
      Fun.protect ~finally:(fun () -> Follower.stop fol) @@ fun () ->
      let r = Follower.replica fol in
      let seeded = Atomic.make false and bad = ref [] and queries = ref 0 in
      let querier =
        Thread.create
          (fun () ->
            while not (Atomic.get seeded) do
              (match (r.count "ana", List.length (r.search "ana")) with
              | c, h when List.for_all (fun n -> n = 0 || (n >= 27 && n <= 30)) [ c; h ] -> ()
              | c, h -> bad := Printf.sprintf "count %d, hits %d" c h :: !bad
              | exception e -> bad := Printexc.to_string e :: !bad);
              incr queries
            done)
          ()
      in
      let caught_up () =
        let deadline = Unix.gettimeofday () +. 10. in
        while Follower.watermark fol <> SI.stream_positions store do
          if Unix.gettimeofday () > deadline then Alcotest.fail "replica never caught up";
          Thread.delay 0.01
        done
      in
      caught_up ();
      Atomic.set seeded true;
      Thread.join querier;
      Alcotest.(check bool) "queried during the re-seed" true (!queries > 0);
      Alcotest.(check (list string)) "queries during the re-seed" [] (List.rev !bad);
      Alcotest.(check bool) "seeded from a snapshot" true (boots () > boots0);
      Alcotest.(check int) "doc_count" 29 (r.doc_count ());
      Alcotest.(check int) "count" 29 (r.count "ana");
      Alcotest.(check bool) "dead doc stays dead" false (r.mem 3);
      Alcotest.(check (option string)) "extract" (Some "doc 29") (r.extract ~doc:29 ~off:7 ~len:6);
      let c = Client.connect (`Unix lsock) in
      Alcotest.(check int) "leader id continues" 30 (Client.insert c "written after the seed ana");
      Client.close c;
      caught_up ();
      Alcotest.(check int) "the replica keeps tailing" 30 (r.count "ana");
      Alcotest.(check bool) "the new doc has the leader's id" true (r.mem 30))

(* A follower that stops advancing is given up on after the stall
   window, not the 30 s overall cap. *)
let test_wait_catchup_stopped_follower () =
  with_dir "dsdg-repl-stall" (fun dir ->
      let lsock = Filename.concat dir "leader.sock" in
      Unix.mkdir dir 0o755;
      let store, _ = SI.open_store ~shards:1 ~dir:(Filename.concat dir "leader") () in
      let leader = Server.start (SI.subject store) (`Unix lsock) in
      Fun.protect ~finally:(fun () -> Server.stop leader) @@ fun () ->
      let fol = Follower.start ~leader:(`Unix lsock) ~dir:(Filename.concat dir "replica") () in
      for i = 0 to 4 do
        ignore (SI.insert store (Printf.sprintf "doc %d" i))
      done;
      Alcotest.(check bool) "a live follower catches up" true (Repl_check.wait_catchup store fol);
      Follower.stop fol;
      for i = 5 to 7 do
        ignore (SI.insert store (Printf.sprintf "doc %d" i))
      done;
      let t0 = Unix.gettimeofday () in
      let caught = Repl_check.wait_catchup store fol in
      let waited = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "a stopped follower never catches up" false caught;
      if waited >= 2. then Alcotest.failf "wait_catchup took %.1f s on a stopped follower" waited)

(* --- read-only replica serving: queries local, writes redirected --- *)

let test_follower_serves_reads_redirects_writes () =
  with_dir "dsdg-repl-ro" (fun dir ->
      let leader_dir = Filename.concat dir "leader" in
      let replica_dir = Filename.concat dir "replica" in
      let lsock = Filename.concat dir "leader.sock" in
      let fsock = Filename.concat dir "replica.sock" in
      Unix.mkdir dir 0o755;
      let store, _ = SI.open_store ~shards:1 ~dir:leader_dir () in
      let leader = Server.start (SI.subject store) (`Unix lsock) in
      Fun.protect
        ~finally:(fun () -> Server.stop leader)
        (fun () ->
          let lc = Client.connect (`Unix lsock) in
          let id = Client.insert lc "banana stand" in
          ignore (Client.insert lc "cabana");
          let fol = Follower.start ~leader:(`Unix lsock) ~dir:replica_dir () in
          let fsrv = Server.start (Follower.read_only fol) (`Unix fsock) in
          Fun.protect
            ~finally:(fun () -> Server.stop fsrv)
            (fun () ->
              let fc = Client.connect (`Unix fsock) in
              (* wait for the replica to catch up through the wire *)
              let deadline = Unix.gettimeofday () +. 10. in
              while
                Client.count fc "ana" < 3
                && (Unix.gettimeofday () < deadline || Alcotest.fail "replica never caught up")
              do
                Thread.delay 0.02
              done;
              (* reads answer locally, identically to the leader *)
              Alcotest.(check bool) "search matches leader" true
                (Client.search fc "ana" = Client.search lc "ana");
              Alcotest.(check bool) "extract" true
                (Client.extract fc ~doc:id ~off:7 ~len:5 = Some "stand");
              (* stats surface the replication scope *)
              let stats = Client.stats fc in
              Alcotest.(check bool) "stats carry connected flag" true
                (List.mem_assoc "connected" stats);
              (* mutations are refused with a redirect naming the leader *)
              (match Client.insert fc "must be refused" with
              | _ -> Alcotest.fail "follower accepted a write"
              | exception Client.Server_error reason ->
                Alcotest.(check bool)
                  (Printf.sprintf "redirect names the leader (%s)" reason)
                  true
                  (let has needle =
                     let nl = String.length needle and dl = String.length reason in
                     let rec go i = i + nl <= dl && (String.sub reason i nl = needle || go (i + 1)) in
                     go 0
                   in
                   has lsock && has "read-only"));
              (* the refused write never reached either side *)
              Alcotest.(check int) "leader unaffected" 3 (Client.count lc "ana");
              Client.close fc;
              Client.close lc)))

let suite =
  [ Alcotest.test_case "convergence: K=1 cluster, every quiesce point" `Quick
      test_convergence_single;
    Alcotest.test_case "convergence: K=2 cluster, migrate shipping" `Quick
      test_convergence_sharded;
    Alcotest.test_case "convergence: replica outruns compaction (archives/snapshot)" `Quick
      test_convergence_past_compaction;
    Alcotest.test_case "convergence: sync every 8, idle leader flushes its tail" `Quick
      test_convergence_lazy_sync;
    Alcotest.test_case "fresh K=1 replica is seeded from the leader's snapshot" `Quick
      test_fresh_replica_reseeds;
    Alcotest.test_case "planted replica fault is caught (oracle self-test)" `Slow
      (test_planted_fault_caught ~shards:1);
    Alcotest.test_case "planted K=2 replica fault is caught per shard" `Slow
      (test_planted_fault_caught ~shards:2);
    Alcotest.test_case "failover: K=1 promoted follower keeps acked writes" `Quick
      test_failover_single;
    Alcotest.test_case "failover: K=2 promoted follower keeps acked writes" `Quick
      test_failover_sharded;
    Alcotest.test_case "wait_catchup: stopped follower" `Quick
      test_wait_catchup_stopped_follower;
    Alcotest.test_case "read-only replica: local reads, redirect on write" `Quick
      test_follower_serves_reads_redirects_writes ]
