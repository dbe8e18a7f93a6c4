(* Leader/follower differential checking; contracts documented in
   repl_check.mli and DESIGN.md section 14. *)

module Trace = Dsdg_check.Trace
module Model = Dsdg_check.Model
module Runner = Dsdg_check.Runner
module Di = Dsdg_core.Dynamic_index
module Durable = Dsdg_store.Durable
module Kill_check = Dsdg_store.Kill_check
module Sh = Dsdg_shard.Sharded_index

let reset_dir = Kill_check.reset_dir

(* --- the sharded differential verifier (global-id surface) --- *)

(* The sharded analogue of [Kill_check.verify]: census, membership and
   full-text extraction of every live document, dead-id checks, sampled
   searches -- against the model, in global ids. *)
let verify_sharded ~label sh (model : Model.t) ~inserts =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errs := Printf.sprintf "%s: %s" label m :: !errs) fmt in
  if Sh.doc_count sh <> Model.doc_count model then
    fail "doc_count %d, model %d" (Sh.doc_count sh) (Model.doc_count model);
  if Sh.total_symbols sh <> Model.total_symbols model then
    fail "total_symbols %d, model %d" (Sh.total_symbols sh) (Model.total_symbols model);
  for id = 0 to inserts - 1 do
    let want = Model.mem model id in
    if Sh.mem sh id <> want then fail "mem %d: %b, model %b" id (Sh.mem sh id) want
  done;
  let live = Model.live model in
  List.iteri
    (fun i (id, text) ->
      let len = String.length text in
      (match Sh.extract sh ~doc:id ~off:0 ~len with
      | Some got when got = text -> ()
      | Some got -> fail "extract %d: %S, model %S" id got text
      | None -> fail "extract %d: none, model %S" id text);
      (* sampled searches: a short pattern from every 7th live doc *)
      if i mod 7 = 0 && len >= 2 then begin
        let p = String.sub text 0 (min 3 len) in
        let got = Sh.search sh p and want = Model.search model p in
        if got <> want then
          fail "search %S: %d hits, model %d" p (List.length got) (List.length want)
      end)
    live;
  List.rev !errs

(* --- harness plumbing --- *)

type cluster = {
  cl_server : Server.t;
  cl_leader : [ `Single of Durable.t | `Sharded of Sh.t ];
  cl_follower : Follower.t;
  cl_client : Client.t;
}

let leader_config ~sync ~checkpoint_every =
  { Durable.default_config with Durable.sync; checkpoint_every }

(* Spin up leader server + follower + client on an ephemeral TCP port.
   The leader handle stays visible so quiesce detection can compare
   serials directly instead of guessing from op counts. *)
let start_cluster ~(index : Dsdg_core.Index_config.t) ~shards ~sync ~checkpoint_every ~dir () =
  let lead_dir = Filename.concat dir "leader" and repl_dir = Filename.concat dir "replica" in
  let config = leader_config ~sync ~checkpoint_every in
  let lead_index = { index with fault = None } in
  let leader, engine =
    if shards <= 1 then begin
      let st, _ = Durable.open_ ~config ~index:lead_index ~dir:lead_dir () in
      (`Single st, Server.engine_of_store st)
    end
    else begin
      let sh, _ = Sh.open_store ~config ~index:lead_index ~shards ~dir:lead_dir () in
      (`Sharded sh, Server.engine_of_sharded sh)
    end
  in
  let server = Server.start_engine ~engine (`Tcp ("127.0.0.1", 0)) in
  let port = match Server.port server with Some p -> p | None -> assert false in
  let addr = `Tcp ("127.0.0.1", port) in
  (* a planted fault lands in the REPLICA's index: the leader's WAL
     stays correct, so only replica-side corruption is detectable by a
     replica-vs-model oracle -- that is exactly what the self-test
     needs to prove the oracle has teeth *)
  let follower =
    Follower.start ~config:Durable.default_config ~index ~poll:0.002 ~leader:addr ~dir:repl_dir ()
  in
  let client = Client.connect addr in
  { cl_server = server; cl_leader = leader; cl_follower = follower; cl_client = client }

(* Caught up = every leader stream position is fully applied AND
   published on the replica (the follower's watermark, not the replica
   store's raw WAL serials -- those advance before the index apply
   finishes, so comparing them would let verification race a batch
   apply) and no placement is waiting for its shard record. *)
let caught_up c =
  let wm = Follower.watermark c.cl_follower in
  match c.cl_leader with
  | `Single lead -> wm = [| Durable.wal_serial lead |]
  | `Sharded lead ->
    wm = Array.append (Sh.wal_serials lead) [| Sh.meta_records lead |]
    && (match Follower.replica c.cl_follower with
       | Follower.R_sharded repl -> Array.for_all (( = ) 0) (Sh.replica_pending repl)
       | Follower.R_single _ -> false)

let wait_catchup ?(timeout = 30.) c =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if caught_up c then true
    else if Follower.error c.cl_follower <> None then false
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

(* Drive one mutation through the wire, mirroring it in the model; a
   leader/model id or ack disagreement is itself a failure. *)
let send_op c model op =
  match op with
  | Trace.Insert text ->
    let got = Client.insert c.cl_client text and want = Model.insert model text in
    if got <> want then Some (Printf.sprintf "insert acked id %d, model %d" got want) else None
  | Trace.Delete id ->
    let got = Client.delete c.cl_client id and want = Model.delete model id in
    if got <> want then Some (Printf.sprintf "delete %d acked %b, model %b" id got want)
    else None
  | _ -> None

let mutations ops =
  List.filter (function Trace.Insert _ | Trace.Delete _ -> true | _ -> false) ops

let verify_replica ~label c model ~inserts =
  match Follower.replica c.cl_follower with
  | Follower.R_single st ->
    let idx = Durable.index st in
    (* content vs model, plus the Dietz-Sleator cleaning-schedule
       invariant -- the probe that catches a replayed [`Skip_top_clean]
       fault, which never corrupts query answers, only the bound *)
    Kill_check.verify ~label idx model ~inserts
    @ (match (Di.probe idx).Di.pr_clean with
      | Some (counter, period) when counter > 2 * period ->
        [
          Printf.sprintf
            "%s: Dietz-Sleator cleaning fell behind on the replica: %d deleted symbols since \
             dispatch > 2 * delta = %d"
            label counter (2 * period);
        ]
      | _ -> [])
  | Follower.R_sharded sh -> verify_sharded ~label sh model ~inserts

(* --- convergence --- *)

type outcome = { rc_points : int; rc_failures : (int * string) list }

let outcome_to_string o =
  if o.rc_failures = [] then Printf.sprintf "converged at all %d quiesce points" o.rc_points
  else
    Printf.sprintf "%d/%d quiesce points diverged: %s" (List.length o.rc_failures) o.rc_points
      (String.concat "; "
         (List.map (fun (p, m) -> Printf.sprintf "[after %d ops] %s" p m) o.rc_failures))

let convergence ?(index = Dsdg_core.Index_config.default) ?(shards = 1)
    ?(sync = Dsdg_store.Wal.Always) ?(checkpoint_every = 0) ?(quiesce_every = 16) ~dir ~ops ()
    =
  reset_dir dir;
  let ops = mutations ops in
  let c =
    start_cluster ~index ~shards ~sync ~checkpoint_every ~dir ()
  in
  let model = Model.create () in
  let inserts = ref 0 in
  let points = ref 0 in
  let failures = ref [] in
  let record step msg = failures := (step, msg) :: !failures in
  let quiesce step =
    incr points;
    (* exercise migration shipping: the client is idle here, so the
       test thread is the only writer and may rebalance directly *)
    (match c.cl_leader with
    | `Sharded sh when step > 0 && !failures = [] -> ignore (Sh.rebalance_hottest sh)
    | _ -> ());
    if not (wait_catchup c) then
      record step
        (match Follower.error c.cl_follower with
        | Some e -> "follower error: " ^ e
        | None -> "follower failed to catch up")
    else
      List.iter (record step)
        (verify_replica ~label:(Printf.sprintf "quiesce@%d" step) c model ~inserts:!inserts)
  in
  let step = ref 0 in
  (try
     List.iter
       (fun op ->
         if !failures = [] then begin
           (match op with Trace.Insert _ -> incr inserts | _ -> ());
           (match send_op c model op with Some m -> record !step m | None -> ());
           incr step;
           if !step mod quiesce_every = 0 then quiesce !step
         end)
       ops;
     if !failures = [] then quiesce !step
   with e -> record !step ("harness: " ^ Printexc.to_string e));
  (try Client.close c.cl_client with _ -> ());
  (try Follower.stop c.cl_follower with _ -> ());
  (try Server.stop c.cl_server with _ -> ());
  { rc_points = !points; rc_failures = List.rev !failures }

(* Delta-debug a diverging stream (K=1 keeps runtime sane): the failing
   predicate replays the whole cluster per candidate. *)
let shrink ?index ?shards ?sync ?checkpoint_every ?quiesce_every ?(max_runs = 24) ~dir ops =
  Runner.shrink_ops ~max_runs
    ~fails:(fun candidate ->
      let o =
        convergence ?index ?shards ?sync ?checkpoint_every ?quiesce_every ~dir ~ops:candidate ()
      in
      o.rc_failures <> [])
    ops

(* --- failover --- *)

(* Kill the leader at each stride point (after quiescing, so acked =
   shipped), promote the follower, and verify every acknowledged write
   -- then drive the remaining ops on the promoted store and re-verify,
   so promotion leaves a fully functional writer. *)
let failover_sweep ?(index = Dsdg_core.Index_config.default) ?(shards = 1)
    ?(sync = Dsdg_store.Wal.Always) ?(checkpoint_every = 0) ?(torn = true) ?(stride = 8) ~dir
    ~ops () =
  let ops = mutations ops in
  let n = List.length ops in
  let points = ref 0 and failures = ref [] in
  let point p =
    incr points;
    reset_dir dir;
    let c =
      start_cluster ~index ~shards ~sync ~checkpoint_every ~dir ()
    in
    let model = Model.create () in
    let inserts = ref 0 in
    let errs = ref [] in
    (try
       List.iteri
         (fun i op ->
           if i < p && !errs = [] then begin
             (match op with Trace.Insert _ -> incr inserts | _ -> ());
             match send_op c model op with Some m -> errs := [ m ] | None -> ()
           end)
         ops;
       if !errs = [] && not (wait_catchup c) then
         errs :=
           [
             (match Follower.error c.cl_follower with
             | Some e -> "follower error: " ^ e
             | None -> "follower failed to catch up before the kill");
           ];
       (* the crash: no drain, no farewell *)
       Server.kill c.cl_server ~torn;
       (try Client.close c.cl_client with _ -> ());
       if !errs = [] then begin
         let promoted = Follower.detach c.cl_follower in
         let label = Printf.sprintf "promote@%d" p in
         (match promoted with
         | Follower.R_single st ->
           errs := Kill_check.verify ~label (Durable.index st) model ~inserts:!inserts;
           (* continuation: the promoted replica is the writer now *)
           if !errs = [] then begin
             List.iteri
               (fun i op ->
                 if i >= p then
                   match op with
                   | Trace.Insert text ->
                     incr inserts;
                     let got = Durable.insert st text and want = Model.insert model text in
                     if got <> want then
                       errs := [ Printf.sprintf "continuation insert %d, model %d" got want ]
                   | Trace.Delete id ->
                     let got = Durable.delete st id and want = Model.delete model id in
                     if got <> want then
                       errs := [ Printf.sprintf "continuation delete %d: %b/%b" id got want ]
                   | _ -> ())
               ops;
             if !errs = [] then
               errs :=
                 Kill_check.verify ~label:(label ^ "+cont") (Durable.index st) model
                   ~inserts:!inserts
           end;
           Durable.close st
         | Follower.R_sharded sh ->
           errs := verify_sharded ~label sh model ~inserts:!inserts;
           if !errs = [] then begin
             List.iteri
               (fun i op ->
                 if i >= p then
                   match op with
                   | Trace.Insert text ->
                     incr inserts;
                     let got = Sh.insert sh text and want = Model.insert model text in
                     if got <> want then
                       errs := [ Printf.sprintf "continuation insert %d, model %d" got want ]
                   | Trace.Delete id ->
                     let got = Sh.delete sh id and want = Model.delete model id in
                     if got <> want then
                       errs := [ Printf.sprintf "continuation delete %d: %b/%b" id got want ]
                   | _ -> ())
               ops;
             if !errs = [] then
               errs := verify_sharded ~label:(label ^ "+cont") sh model ~inserts:!inserts
           end;
           Sh.close sh)
       end
       else begin
         (try Follower.stop c.cl_follower with _ -> ())
       end
     with e -> errs := [ "harness: " ^ Printexc.to_string e ]);
    List.iter
      (fun detail ->
        failures := { Kill_check.kf_point = p; kf_detail = detail } :: !failures)
      !errs
  in
  let p = ref 0 in
  while !p < n do
    point !p;
    p := !p + max 1 stride
  done;
  point n;
  { Kill_check.kc_points = !points; kc_failures = List.rev !failures }
