(* Unit tests for the domain-pool executor (lib/exec) and for the
   Incremental work accounting the pooled rebuild path of
   Transformation 2 depends on: work_spent is monotone across
   suspensions. *)

open Dsdg_exec

(* A one-shot latch a job can block on; Mutex/Condition so the worker
   domain really sleeps (the test box may have a single core). *)
let latch () =
  let mu = Mutex.create () and cv = Condition.create () and opened = ref false in
  let wait () =
    Mutex.lock mu;
    while not !opened do
      Condition.wait cv mu
    done;
    Mutex.unlock mu
  and release () =
    Mutex.lock mu;
    opened := true;
    Condition.broadcast cv;
    Mutex.unlock mu
  in
  (wait, release)

(* Spin until the single worker has pulled the blocker off the queue, so
   the next submit is guaranteed to sit in the queue behind it. *)
let wait_queue_empty p =
  while Executor.pending p > 0 do
    Domain.cpu_relax ()
  done

let test_sync_inline () =
  let p = Executor.create ~workers:0 () in
  Alcotest.(check bool) "mode is Sync" true (Executor.mode p = `Sync);
  Alcotest.(check int) "no worker domains" 0 (Executor.workers p);
  let ran = ref false in
  let h =
    Executor.submit p ~name:"sync" (fun tick ->
        tick ();
        ran := true;
        41 + 1)
  in
  Alcotest.(check bool) "ran inline before submit returned" true !ran;
  (match Executor.poll p h with
  | `Done 42 -> ()
  | _ -> Alcotest.fail "Sync submit must be terminal immediately");
  Alcotest.(check int) "work_spent counts ticks" 1 (Executor.work_spent h);
  Executor.shutdown p

let test_pool_roundtrip () =
  let p = Executor.create ~workers:2 () in
  Alcotest.(check bool) "mode is Pool" true (Executor.mode p = `Pool 2);
  let hs = List.init 8 (fun i -> Executor.submit p ~name:(Printf.sprintf "job %d" i) (fun tick -> tick (); i * i)) in
  List.iteri
    (fun i h ->
      match Executor.await p h with
      | `Done v -> Alcotest.(check int) (Printf.sprintf "result %d" i) (i * i) v
      | `Failed e -> Alcotest.failf "job %d failed: %s" i (Printexc.to_string e)
      | `Cancelled -> Alcotest.failf "job %d cancelled" i)
    hs;
  Executor.shutdown p

(* await on a job still in the queue must steal it and run it on the
   caller (the paper's synchronous forced completion), not wait for the
   busy worker. *)
let test_await_steals_queued () =
  let p = Executor.create ~workers:1 () in
  let wait, release = latch () in
  let blocker = Executor.submit p ~name:"blocker" (fun _tick -> wait (); 0) in
  wait_queue_empty p;
  let me = Domain.self () in
  let queued = Executor.submit p ~name:"queued" (fun tick -> tick (); Domain.self ()) in
  (match Executor.await p queued with
  | `Done d -> Alcotest.(check bool) "stolen job ran on the caller" true (d = me)
  | _ -> Alcotest.fail "queued job did not complete");
  release ();
  (match Executor.await p blocker with
  | `Done 0 -> ()
  | _ -> Alcotest.fail "blocker did not finish");
  Executor.shutdown p

let test_cancel_queued_never_runs () =
  let p = Executor.create ~workers:1 () in
  let wait, release = latch () in
  let blocker = Executor.submit p ~name:"blocker" (fun _tick -> wait ()) in
  wait_queue_empty p;
  let ran = Atomic.make false in
  let doomed = Executor.submit p ~name:"doomed" (fun _tick -> Atomic.set ran true) in
  Executor.cancel p doomed;
  (match Executor.poll p doomed with
  | `Cancelled -> ()
  | _ -> Alcotest.fail "cancelling a queued job must be immediate");
  release ();
  (match Executor.await p blocker with
  | `Done () -> ()
  | _ -> Alcotest.fail "blocker did not finish");
  Alcotest.(check bool) "cancelled job never ran" false (Atomic.get ran);
  Executor.shutdown p

let test_cancel_running_at_tick () =
  let p = Executor.create ~workers:1 () in
  let started = Atomic.make false in
  let h =
    Executor.submit p ~name:"spinner" (fun tick ->
        Atomic.set started true;
        while true do
          tick ();
          Domain.cpu_relax ()
        done)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Executor.cancel p h;
  (match Executor.await p h with
  | `Cancelled -> ()
  | _ -> Alcotest.fail "running job must observe cancel at its next tick");
  Executor.shutdown p

exception Boom

let test_failure_propagates () =
  let p = Executor.create ~workers:1 () in
  let h = Executor.submit p ~name:"boom" (fun _tick -> raise Boom) in
  (match Executor.await p h with
  | `Failed Boom -> ()
  | `Failed e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected `Failed");
  (match Executor.run p ~name:"boom2" (fun _tick -> raise Boom) with
  | exception Boom -> ()
  | _ -> Alcotest.fail "run must re-raise the job's exception");
  Executor.shutdown p

(* Bounded submission: with the worker busy and the queue full, the next
   submit pays for its job inline instead of growing the queue. *)
let test_queue_overflow_runs_inline () =
  let p = Executor.create ~workers:1 ~queue_cap:1 () in
  let wait, release = latch () in
  let blocker = Executor.submit p ~name:"blocker" (fun _tick -> wait (); 0) in
  wait_queue_empty p;
  let queued = Executor.submit p ~name:"queued" (fun tick -> tick (); 1) in
  Alcotest.(check int) "queue holds exactly one job" 1 (Executor.pending p);
  let ran_inline = ref false in
  let overflow =
    Executor.submit p ~name:"overflow" (fun tick ->
        tick ();
        ran_inline := true;
        2)
  in
  Alcotest.(check bool) "overflow ran inline before submit returned" true !ran_inline;
  (match Executor.poll p overflow with
  | `Done 2 -> ()
  | _ -> Alcotest.fail "overflow job result");
  release ();
  (match Executor.await p queued with `Done 1 -> () | _ -> Alcotest.fail "queued job");
  (match Executor.await p blocker with `Done 0 -> () | _ -> Alcotest.fail "blocker");
  Executor.shutdown p

let test_shutdown_idempotent_then_inline () =
  let p = Executor.create ~workers:2 () in
  let h = Executor.submit p ~name:"before" (fun tick -> tick (); 7) in
  (match Executor.await p h with `Done 7 -> () | _ -> Alcotest.fail "pre-shutdown job");
  Executor.shutdown p;
  Executor.shutdown p;
  let ran = ref false in
  let h2 =
    Executor.submit p ~name:"after" (fun _tick ->
        ran := true;
        8)
  in
  Alcotest.(check bool) "post-shutdown submit runs inline" true !ran;
  match Executor.poll p h2 with
  | `Done 8 -> ()
  | _ -> Alcotest.fail "post-shutdown job result"

(* Shutdown is a drain, not an abort: jobs already queued behind a
   slow one must still complete, and the call must not hang. *)
let test_shutdown_drains_queued_jobs () =
  let p = Executor.create ~workers:1 () in
  let gate = Atomic.make false in
  let slow =
    Executor.submit p ~name:"slow" (fun tick ->
        while not (Atomic.get gate) do
          tick ();
          Thread.yield ()
        done;
        1)
  in
  let queued = List.init 5 (fun i -> Executor.submit p ~name:"queued" (fun _tick -> 10 + i)) in
  Alcotest.(check bool) "jobs pending at shutdown" true (Executor.pending p > 0);
  Atomic.set gate true;
  Executor.shutdown p;
  (match Executor.poll p slow with `Done 1 -> () | _ -> Alcotest.fail "slow job lost");
  List.iteri
    (fun i h ->
      match Executor.poll p h with
      | `Done v -> Alcotest.(check int) "queued job value" (10 + i) v
      | _ -> Alcotest.failf "queued job %d not completed by shutdown" i)
    queued;
  Alcotest.(check int) "nothing pending after drain" 0 (Executor.pending p)

(* Every observation verb keeps a defined meaning on a closed pool. *)
let test_closed_pool_observations () =
  let p = Executor.create ~workers:2 () in
  let h = Executor.submit p ~name:"done" (fun _tick -> 3) in
  (match Executor.await p h with `Done 3 -> () | _ -> Alcotest.fail "job");
  Executor.shutdown p;
  (* terminal handles stay readable *)
  (match Executor.poll p h with `Done 3 -> () | _ -> Alcotest.fail "poll after shutdown");
  (match Executor.await p h with `Done 3 -> () | _ -> Alcotest.fail "await after shutdown");
  (* cancel on a terminal handle is a no-op, not an error *)
  Executor.cancel p h;
  (match Executor.poll p h with `Done 3 -> () | _ -> Alcotest.fail "cancel flipped terminal state");
  Alcotest.(check int) "pending is 0" 0 (Executor.pending p);
  (* run falls back inline, like submit *)
  Alcotest.(check int) "run after shutdown" 9 (Executor.run p ~name:"inline" (fun _tick -> 9))

let test_work_spent_exact_when_terminal () =
  let p = Executor.create ~workers:1 () in
  let h =
    Executor.submit p ~name:"ticker" (fun tick ->
        for _ = 1 to 17 do
          tick ()
        done)
  in
  (match Executor.await p h with `Done () -> () | _ -> Alcotest.fail "ticker");
  Alcotest.(check int) "work_spent counts every tick" 17 (Executor.work_spent h);
  Executor.shutdown p

(* --- Incremental lifecycle (the cooperative half of the contract) --- *)

module I = Dsdg_incr.Incremental

let test_incr_work_spent_monotone () =
  let job =
    I.create (fun tick ->
        for _ = 1 to 50 do
          tick ()
        done;
        50)
  in
  Alcotest.(check int) "no work before the first step" 0 (I.work_spent job);
  let last = ref 0 in
  let rec go () =
    match I.step job ~budget:7 with
    | `More ->
      let w = I.work_spent job in
      Alcotest.(check bool) "work_spent is monotone across suspensions" true (w >= !last);
      last := w;
      go ()
    | `Done v ->
      Alcotest.(check int) "result" 50 v;
      Alcotest.(check int) "every tick accounted for" 50 (I.work_spent job)
  in
  go ()

(* --- domain-safety of the observability layer --- *)

(* Two domains hammering the same counter / gauge / histogram: every
   increment must land (Atomic cells, not racy int fields). *)
let test_obs_two_domain_hammer () =
  let open Dsdg_obs in
  let scope = Obs.private_scope "test/hammer" in
  let c = Obs.counter scope "hits" in
  let g = Obs.gauge scope "peak" in
  let h = Obs.histogram scope "obs" in
  let n = 20_000 in
  let body base () =
    for i = 1 to n do
      Obs.incr c;
      Obs.set_max g (base + i);
      Obs.observe h (1 + ((base + i) mod 1024))
    done
  in
  let d1 = Domain.spawn (body 0) in
  let d2 = Domain.spawn (body n) in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "no lost counter increments" (2 * n) (Obs.value c);
  Alcotest.(check int) "set_max kept the maximum" (2 * n) (Obs.gauge_value g);
  let s = Obs.summarize h in
  Alcotest.(check int) "no lost histogram observations" (2 * n) s.Obs.n

(* --- the read plane under concurrent readers --- *)

(* Single writer applying a precomputed update stream; K raw
   [Domain.spawn] readers continuously fetching the published view.
   With [jobs = 0] every successful update publishes exactly once, so
   the epoch IS the number of applied updates -- each reader checks its
   epochs are monotone and that the view's answers (doc_count, the
   occurrence list of a fixed pattern) equal the precomputed model state
   for that exact epoch.  Any torn or stale snapshot shows up as a
   mismatch. *)
let test_concurrent_readers_per_epoch_oracle () =
  let open Dsdg_core in
  let n_updates = 150 in
  let pat = "abc" in
  (* generate the stream and the per-epoch expected states up front *)
  let text_of id = Printf.sprintf "%04d abcde" id in
  let ops = Array.make n_updates `Nop in
  let expected = Array.make (n_updates + 1) (0, []) in
  let live = ref [] and next_id = ref 0 in
  expected.(0) <- (0, []);
  for i = 0 to n_updates - 1 do
    (match !live with
    | id :: rest when i mod 3 = 2 ->
      ops.(i) <- `Delete id;
      live := rest
    | _ ->
      let id = !next_id in
      incr next_id;
      ops.(i) <- `Insert (text_of id);
      live := id :: !live);
    let matches = List.sort compare (List.map (fun id -> (id, 5)) !live) in
    expected.(i + 1) <- (List.length !live, matches)
  done;
  let idx = Dynamic_index.create ~index:{ Index_config.default with sample = 2; tau = 4 } () in
  let stop = Atomic.make false in
  let reader () =
    let errors = ref [] and last = ref (-1) and seen = ref 0 in
    while not (Atomic.get stop) do
      let v = Dynamic_index.view idx in
      let e = Dynamic_index.view_epoch v in
      incr seen;
      if e < !last then errors := Printf.sprintf "epoch went backwards: %d -> %d" !last e :: !errors;
      last := e;
      if e > n_updates then errors := Printf.sprintf "epoch %d beyond update count" e :: !errors
      else begin
        let exp_docs, exp_matches = expected.(e) in
        let docs = Dynamic_index.view_doc_count v in
        if docs <> exp_docs then
          errors := Printf.sprintf "epoch %d: doc_count %d, expected %d" e docs exp_docs :: !errors;
        let hits = Dynamic_index.view_search v pat in
        if hits <> exp_matches then
          errors := Printf.sprintf "epoch %d: search mismatch (%d hits, expected %d)" e
                      (List.length hits) (List.length exp_matches) :: !errors
      end
    done;
    (!seen, List.rev !errors)
  in
  let readers = List.init 2 (fun _ -> Domain.spawn reader) in
  Array.iter
    (function
      | `Insert text -> ignore (Dynamic_index.insert idx text)
      | `Delete id -> ignore (Dynamic_index.delete idx id)
      | `Nop -> ())
    ops;
  Atomic.set stop true;
  let results = List.map Domain.join readers in
  Dynamic_index.close idx;
  List.iteri
    (fun i (seen, errors) ->
      Alcotest.(check bool) (Printf.sprintf "reader %d sampled views" i) true (seen > 0);
      match errors with
      | [] -> ()
      | e :: _ ->
        Alcotest.failf "reader %d: %d violation(s), first: %s" i (List.length errors) e)
    results;
  (* the writer is quiescent: the final published epoch is the update count *)
  Alcotest.(check int) "final epoch = updates applied" n_updates
    (Dynamic_index.view_epoch (Dynamic_index.view idx))

(* Queries through a reader pool must agree with the write plane (and
   enforce the same API conventions) once the writer is quiescent. *)
let test_reader_pool_query () =
  let open Dsdg_core in
  let idx = Dynamic_index.create ~index:{ Index_config.default with sample = 2; tau = 4; readers = 2 } () in
  Alcotest.(check int) "pool size" 2 (Dynamic_index.readers idx);
  let ids = List.init 20 (fun i -> Dynamic_index.insert idx (Printf.sprintf "%02d abcde" i)) in
  List.iteri (fun i id -> if i mod 4 = 0 then ignore (Dynamic_index.delete idx id)) ids;
  let direct = Dynamic_index.search idx "abc" in
  let pooled = Dynamic_index.query idx (fun v -> Dynamic_index.view_search v "abc") in
  Alcotest.(check bool) "pooled search = direct search" true (pooled = direct);
  let c = Dynamic_index.query idx (fun v -> Dynamic_index.view_count v "abc") in
  Alcotest.(check int) "pooled count" (List.length direct) c;
  (match Dynamic_index.query idx (fun v -> Dynamic_index.view_extract v ~doc:(List.nth ids 1) ~off:0 ~len:0) with
  | Some "" -> ()
  | _ -> Alcotest.fail "len=0 extract convention must hold on views");
  (match Dynamic_index.query idx (fun v -> Dynamic_index.view_count v "") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty pattern must be rejected through the pool");
  Dynamic_index.close idx;
  (* after close the pool is gone; queries fall back inline *)
  let c' = Dynamic_index.query idx (fun v -> Dynamic_index.view_count v "abc") in
  Alcotest.(check int) "post-close query falls back inline" c c'

(* Over-budget worker settings are refused before any domain starts:
   domain ids are handed out in spawn order, so a probe domain spawned
   before and after the refused calls gets consecutive ids exactly when
   none started in between. *)
let test_domain_budget_refused_before_spawn () =
  let module Ic = Dsdg_core.Index_config in
  let probe () = Domain.join (Domain.spawn (fun () -> (Domain.self () :> int))) in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument msg ->
      let says = "limit of 128 domains" in
      let n = String.length says in
      let rec found i = i + n <= String.length msg && (String.sub msg i n = says || found (i + 1)) in
      Alcotest.(check bool) (what ^ " names the limit") true (found 0)
  in
  let before = probe () in
  let jobs = { Ic.default with jobs = 1000 } in
  refused "validate jobs=1000" (fun () -> Ic.validate jobs);
  refused "create jobs=1000" (fun () -> Dsdg_core.Dynamic_index.create ~index:jobs ());
  refused "127 jobs + 1 reader" (fun () -> Ic.validate { Ic.default with jobs = 127; readers = 1 });
  refused "8 shards x 16 jobs" (fun () ->
      Dsdg_shard.Sharded_index.create ~index:{ Ic.default with jobs = 16 } ~shards:8 ());
  refused "recovery + 2 stores x (jobs + checkpoint)" (fun () ->
      Ic.validate_collection ~indexes:2 ~checkpoint_jobs:1 ~recovery_jobs:4
        { Ic.default with jobs = 61 });
  Alcotest.(check int) "no domain started" (before + 1) (probe ());
  (* the budget is exact: 127 workers beside the main domain are legal *)
  ignore (Ic.validate { Ic.default with jobs = 127 });
  ignore
    (Ic.validate_collection ~indexes:2 ~checkpoint_jobs:1 ~recovery_jobs:3
       { Ic.default with jobs = 61 })

let suite =
  [ ("sync pool runs inline", `Quick, test_sync_inline);
    ("pooled submit/await round-trip", `Quick, test_pool_roundtrip);
    ("await steals a queued job", `Quick, test_await_steals_queued);
    ("cancel queued job never runs", `Quick, test_cancel_queued_never_runs);
    ("cancel running job at tick", `Quick, test_cancel_running_at_tick);
    ("failure propagates", `Quick, test_failure_propagates);
    ("queue overflow runs inline", `Quick, test_queue_overflow_runs_inline);
    ("shutdown idempotent, then inline", `Quick, test_shutdown_idempotent_then_inline);
    ("shutdown drains queued jobs", `Quick, test_shutdown_drains_queued_jobs);
    ("closed pool: poll/await/cancel/run defined", `Quick, test_closed_pool_observations);
    ("work_spent exact when terminal", `Quick, test_work_spent_exact_when_terminal);
    ("incremental: work_spent monotone", `Quick, test_incr_work_spent_monotone);
    ("obs: two-domain hammer loses nothing", `Quick, test_obs_two_domain_hammer);
    ("read plane: concurrent readers, per-epoch oracle", `Quick,
     test_concurrent_readers_per_epoch_oracle);
    ("read plane: reader-pool query", `Quick, test_reader_pool_query);
    ("domain budget refused before any spawn", `Quick, test_domain_budget_refused_before_spawn) ]
