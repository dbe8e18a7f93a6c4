(* Leader/follower differential checking; contracts documented in
   repl_check.mli and DESIGN.md section 14. *)

module Trace = Dsdg_check.Trace
module Model = Dsdg_check.Model
module Runner = Dsdg_check.Runner
module Subject = Dsdg_check.Subject
module Durable = Dsdg_store.Durable
module Sh = Dsdg_shard.Sharded_index

(* --- harness plumbing --- *)

type cluster = {
  cl_leader : Sh.t;  (* the leader's store, which the server fronts *)
  cl_server : Server.t;
  cl_follower : Follower.t;
  cl_client : Client.t;
}

(* Spin up leader server + follower + client on an ephemeral TCP port. *)
let start_cluster ~(index : Dsdg_core.Index_config.t) ~shards ~sync ~checkpoint_every ~dir () =
  let lead_dir = Filename.concat dir "leader" and repl_dir = Filename.concat dir "replica" in
  let config = { Durable.default_config with Durable.sync; checkpoint_every } in
  let leader, _ =
    Sh.open_store ~config ~index:{ index with fault = None } ~shards ~dir:lead_dir ()
  in
  let server = Server.start (Sh.subject ~name:"leader" leader) (`Tcp ("127.0.0.1", 0)) in
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
  { cl_leader = leader; cl_server = server; cl_follower = follower; cl_client = client }

(* Caught up = every leader stream position is fully applied AND
   published on the replica (the follower's watermark, not the replica
   store's raw WAL serials -- those advance before the index apply
   finishes, so comparing them would let verification race a batch
   apply; a sharded watermark counts only placements bound to their
   shard record).  A follower that has stopped advancing (a failing
   shrink candidate, a dead follower) is given up on after [stall]
   seconds without progress on either side, not after the whole
   [timeout]. *)
let stall = 1.

let wait_catchup ?(timeout = 30.) leader follower =
  let t0 = Unix.gettimeofday () in
  let observe () = (Follower.watermark follower, Sh.stream_positions leader) in
  let rec go seen since =
    let now = Unix.gettimeofday () and ((w, p) as o) = observe () in
    if w = p then true
    else if Follower.error follower <> None || now -. t0 > timeout then false
    else if o <> seen then wait o now
    else if now -. since > stall then false
    else wait seen since
  and wait seen since =
    Thread.delay 0.005;
    go seen since
  in
  go (observe ()) t0

let stop_cluster c =
  (try Client.close c.cl_client with _ -> ());
  (try Follower.stop c.cl_follower with _ -> ());
  try Server.stop c.cl_server with _ -> ()

(* The client-side leader: every op goes over the wire, and closing
   (or killing) the record tears the whole cluster down. *)
let leader_subject c =
  let cl = c.cl_client in
  let stat key () = List.assoc key (Client.stats cl) in
  {
    Subject.name = "leader";
    apply_batch =
      List.map (function
        | Trace.Insert text -> Subject.Br_inserted (Client.insert cl text)
        | Trace.Delete id -> Subject.Br_deleted (Client.delete cl id)
        | op -> invalid_arg (Printf.sprintf "%S is not a mutation" (Trace.op_to_string op)));
    search = Client.search cl;
    count = Client.count cl;
    extract = (fun ~doc ~off ~len -> Client.extract cl ~doc ~off ~len);
    mem = Client.mem cl;
    drain = ignore;
    doc_count = stat "docs";
    total_symbols = stat "symbols";
    stats = (fun () -> Client.stats cl);
    repl = (fun ~stream:_ ~from:_ -> Subject.Rp_error "poll the leader's server directly");
    flush = ignore;
    check = (fun () -> []);
    events = (fun () -> []);
    checkpoint = ignore;
    close = (fun () -> stop_cluster c);
    (* the leader's crash: no drain, no farewell; the follower lives on *)
    kill =
      (fun ~torn ->
        Server.kill c.cl_server ~torn;
        try Client.close c.cl_client with _ -> ());
  }

let mutations ops =
  List.filter (function Trace.Insert _ | Trace.Delete _ -> true | _ -> false) ops

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
  Runner.reset_dir dir;
  let c = start_cluster ~index ~shards ~sync ~checkpoint_every ~dir () in
  let leader = leader_subject c in
  let model = Model.create () in
  let points = ref 0 in
  let failures = ref [] in
  let record step msg = failures := (step, msg) :: !failures in
  let quiesce step =
    incr points;
    (* exercise migration shipping (nothing moves at K=1): the client
       is idle here, so the test thread is the only writer and may
       rebalance directly *)
    if step > 0 && !failures = [] then ignore (Sh.rebalance_hottest c.cl_leader);
    if not (wait_catchup c.cl_leader c.cl_follower) then
      record step
        (match Follower.error c.cl_follower with
        | Some e -> "follower error: " ^ e
        | None -> "follower failed to catch up")
    else
      List.iter (record step)
        (Runner.verify
           ~label:(Printf.sprintf "quiesce@%d" step)
           (Follower.replica c.cl_follower)
           model)
  in
  let step = ref 0 in
  (try
     List.iter
       (fun op ->
         if !failures = [] then begin
           (match Runner.apply model leader op with Error m -> record !step m | Ok () -> ());
           incr step;
           if !step mod quiesce_every = 0 then quiesce !step
         end)
       (mutations ops);
     if !failures = [] then quiesce !step
   with e -> record !step ("harness: " ^ Printexc.to_string e));
  leader.close ();
  { rc_points = !points; rc_failures = List.rev !failures }

(* Delta-debug a diverging stream: the failing predicate replays the
   whole cluster per candidate. *)
let shrink ?index ?shards ?sync ?checkpoint_every ?quiesce_every ?(max_runs = 24) ~dir ops =
  Runner.shrink_ops ~simplify:Runner.simplify ~max_runs
    ~fails:(fun candidate ->
      let o =
        convergence ?index ?shards ?sync ?checkpoint_every ?quiesce_every ~dir ~ops:candidate ()
      in
      o.rc_failures <> [])
    ops

(* --- failover --- *)

(* The leader is the crash: quiesce (acked = shipped), kill it, promote
   the follower -- then the sweep verifies every acknowledged write and
   keeps writing on the promoted store, so promotion must leave a fully
   functional writer. *)
let failover_sweep ?(index = Dsdg_core.Index_config.default) ?(shards = 1)
    ?(sync = Dsdg_store.Wal.Always) ?(checkpoint_every = 0) ?(torn = true) ?(stride = 8) ~dir
    ~ops () =
  Runner.sweep ~stride
    {
      Runner.dir;
      open_ =
        (fun () ->
          let c = start_cluster ~index ~shards ~sync ~checkpoint_every ~dir () in
          (c, leader_subject c));
      kill =
        (fun c ~point:_ ->
          let caught = wait_catchup c.cl_leader c.cl_follower in
          (leader_subject c).kill ~torn;
          if not caught then begin
            (try Follower.stop c.cl_follower with _ -> ());
            failwith
              (match Follower.error c.cl_follower with
              | Some e -> "follower error: " ^ e
              | None -> "follower failed to catch up before the kill")
          end);
      reopen = (fun c -> Follower.detach c.cl_follower);
    }
    (mutations ops)
