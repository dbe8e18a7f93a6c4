(* The [served] workload: a preloaded K=2 Sharded_index store behind
   Server, which runs in its own domain. The load generator is one
   thread on the main domain driving two connections (two domains +
   one load thread <= 2 cores): requests are offered open-loop at fixed,
   evenly spaced rates and every latency is timed from when the request
   was due, so a stall is charged to every request it delays.

   The timed phase is a reference step at a fixed rate (the latency
   figures) followed by an overload step that keeps both connections
   busy: its completion rate is the highest offered rate the server
   sustains without a growing backlog. *)

open Util
module Di = Dsdg_core.Dynamic_index
module Sh = Dsdg_shard.Sharded_index
module Durable = Dsdg_store.Durable
module Server = Dsdg_serve.Server
module Protocol = Dsdg_serve.Protocol
module Load_gen = Dsdg_serve.Load_gen
module Trace_op = Dsdg_check.Trace
module Model = Dsdg_check.Model

let shards = 2
let preload = 1800
let setup_reps = 3
let recover_reps = 1

(* The reference step: latencies are reported at this offered rate,
   well under the sustained rate. *)
let ref_rate = 200
let ref_share = 0.7 (* of the timed phase *)

(* The overload step offers far more than the server completes; requests
   not sent by the step's end are dropped, not counted. *)
let overload_rate = 4000

(* Validity of the reference step: its query p99 must meet this limit,
   the generator itself may run at most [late_limit_us] late at p99, and
   the oldest request still unsent when the step's schedule ends may be
   at most [backlog_limit_us] overdue (a growing backlog). *)
let p99_limit_us = 250_000.
let late_limit_us = 25_000.
let backlog_limit_us = 100_000.

type kind = Insert of string | Delete of int | Search of string | Count of string | Extract of int * int * int

type req = { due : int; (* ns from the phase start *) kind : kind }

let is_write = function Insert _ | Delete _ -> true | _ -> false

(* Load_gen.default_mix with its writes split 56/44 between inserts and
   deletes instead of 80/20: the same read/write ratio and query mix,
   but the collection grows by about 3 % of the ops instead of 15 %, so
   a run does not drift into a bigger index as it goes. (An even split
   would put the update median on the edge between the cheaper deletes
   and the inserts.) *)
let mix =
  let d = Load_gen.default_mix in
  let w = 2 * (d.insert + d.delete) in
  { Load_gen.insert = w * 56 / 100; delete = w * 44 / 100; search = 2 * d.search; count = 2 * d.count; extract = 2 * d.extract }

(* Offered schedule of one step: [rate] requests/s for [dur_ns], evenly
   spaced, ops drawn with [mix] weights. Deletes and extracts target
   preloaded documents: deletes a shuffled prefix that is never
   extracted, extracts the rest. *)
let schedule st ~t0 ~rate ~dur_ns ~pattern ~docs ~next_delete ~deletable ~stable =
  let n = int_of_float (float_of_int rate *. float_of_int dur_ns /. 1e9) in
  let total = mix.insert + mix.delete + mix.search + mix.count + mix.extract in
  Array.init n (fun i ->
      let due = t0 + (i * dur_ns / n) in
      let r = Random.State.int st total in
      let kind =
        if r < mix.insert then Insert (Docs.gen_doc st)
        else if r < mix.insert + mix.delete && !next_delete < Array.length deletable then begin
          incr next_delete;
          Delete deletable.(!next_delete - 1)
        end
        else if r < mix.insert + mix.delete + mix.search then Search (pattern ())
        else if r < mix.insert + mix.delete + mix.search + mix.count then Count (pattern ())
        else begin
          let id = stable.(Random.State.int st (Array.length stable)) in
          let d = docs.(id) in
          let len = min (String.length d) (16 + Random.State.int st 49) in
          Extract (id, Random.State.int st (String.length d - len + 1), len)
        end
      in
      { due; kind })

type outcome = {
  o_req : req;
  o_due : int;  (** absolute due time *)
  o_sent : int;
  o_done : int;
  o_resp : Protocol.response;
}

type step = {
  outcomes : outcome array;
  late : Samples.t;  (** generator lateness per request, us *)
  backlog_us : float;  (** how overdue the oldest unsent request was when the schedule ended *)
}

(* Drive one step over [conns]: one thread, select over the sockets. A
   request is sent as soon as it is due and a connection is free. *)
let drive ?(stop = max_int) ~conns ~phase0 reqs =
  let n = Array.length reqs in
  let nc = Array.length conns in
  let busy = Array.make nc (-1) and sent_at = Array.make nc 0 and free_at = Array.make nc phase0 in
  let outcomes = Array.make n None in
  let late = Samples.create () in
  let next = ref 0 and finished = ref 0 in
  let backlog = ref (-1.) in
  let end_due = if n = 0 then phase0 else phase0 + reqs.(n - 1).due in
  let readers = Array.map (fun fd -> Protocol.reader ~max_frame:(1 lsl 20) fd) conns in
  (* requests still unsent at [stop] are dropped *)
  let total = ref n in
  while !finished < !total do
    let now = now_ns () in
    if now >= stop && !next < !total then total := !next;
    if !backlog < 0. && now >= end_due then
      backlog := if !next < n then us_of_ns (now - (phase0 + reqs.(!next).due)) else 0.;
    (* send every due request a free connection can take *)
    for c = 0 to nc - 1 do
      if busy.(c) < 0 && !next < !total && phase0 + reqs.(!next).due <= now then begin
        let j = !next in
        incr next;
        let r = reqs.(j) in
        let op =
          match r.kind with
          | Insert d -> Trace_op.Insert d
          | Delete id -> Trace_op.Delete id
          | Search p -> Trace_op.Search p
          | Count p -> Trace_op.Count p
          | Extract (doc, off, len) -> Trace_op.Extract { doc; off; len }
        in
        let t = now_ns () in
        (* how late the generator ran: from when it could first have
           sent (due, and a connection free) to the send *)
        Samples.add late (us_of_ns (t - max (phase0 + r.due) free_at.(c)));
        Protocol.write_frame conns.(c) (Protocol.request_to_string (Protocol.Op op));
        busy.(c) <- j;
        sent_at.(c) <- t
      end
    done;
    (* wait for a reply, or until the next request is due *)
    let waiting = List.filter (fun c -> busy.(c) >= 0) (List.init nc Fun.id) in
    let any_free = List.length waiting < nc in
    let timeout =
      if any_free && !next < !total then
        Float.max 0. (float_of_int (phase0 + reqs.(!next).due - now_ns ()) /. 1e9)
      else 0.05
    in
    let ready =
      if waiting = [] then begin
        if timeout > 0. then Unix.sleepf timeout;
        []
      end
      else
        match Unix.select (List.map (fun c -> conns.(c)) waiting) [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun c ->
        if List.mem conns.(c) ready then begin
          let resp =
            match Protocol.read_frame readers.(c) with
            | `Frame f -> (
              match Protocol.parse_response f with Ok r -> r | Error e -> Protocol.Err e)
            | `Eof | `Too_long -> Protocol.Err "connection lost"
          in
          let t = now_ns () in
          let j = busy.(c) in
          outcomes.(j) <- Some { o_req = reqs.(j); o_due = phase0 + reqs.(j).due; o_sent = sent_at.(c); o_done = t; o_resp = resp };
          busy.(c) <- -1;
          free_at.(c) <- t;
          incr finished
        end)
      waiting
  done;
  (Array.of_list (List.filter_map Fun.id (Array.to_list outcomes)), late, Float.max 0. !backlog)

(* [strict]: an invalid reference step fails the run. The probe phase of
   a traced run reports no served latencies, so it only notes it. *)
let run ~strict ~seed ~seconds ~scale ~trace ~work =
  let st = Random.State.make [| seed; 11 |] in
  let n_docs = max 60 (preload * scale / 100) in
  let docs = Array.init n_docs (fun _ -> Docs.gen_doc st) in
  let patterns = Docs.ranked_patterns st docs in
  let ztab = zipf_table (Array.length patterns) in
  let pattern () = patterns.(zipf_draw st ztab) in
  let perm = Array.init n_docs Fun.id in
  for i = n_docs - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let n_del = n_docs * 4 / 5 in
  let deletable = Array.sub perm 0 n_del and stable = Array.sub perm n_del (n_docs - n_del) in
  let next_delete = ref 0 in
  let total_ns = seconds * 1_000_000_000 in
  let ref_ns = int_of_float (ref_share *. float_of_int total_ns) in
  let overload_ns = total_ns - ref_ns in
  let mk ~t0 ~rate ~dur_ns = schedule st ~t0 ~rate ~dur_ns ~pattern ~docs ~next_delete ~deletable ~stable in
  let ref_reqs = mk ~t0:0 ~rate:ref_rate ~dur_ns:ref_ns in
  let overload_reqs = mk ~t0:0 ~rate:overload_rate ~dur_ns:overload_ns in
  let dir = Filename.concat work "store" in
  let sock = Filename.concat work "s.sock" in
  let config = { Durable.default_config with sync = Dsdg_store.Wal.Always } in
  (* ---- setup: open + preload + checkpoint, several times ---- *)
  let setup_times = ref [] and store = ref None in
  for _ = 1 to setup_reps do
    Option.iter Sh.close !store;
    rm_rf dir;
    settle ();
    let t0 = now_ns () in
    let sh, _ = Sh.open_store ~config ~shards ~dir () in
    let i = ref 0 in
    while !i < n_docs do
      let k = min 256 (n_docs - !i) in
      ignore (Sh.apply_batch sh (List.init k (fun j -> Trace_op.Insert docs.(!i + j))));
      i := !i + k
    done;
    Sh.checkpoint sh;
    setup_times := s_of_ns (now_ns () - t0) :: !setup_times;
    store := Some sh
  done;
  let sh = Option.get !store in
  (* ---- the server, in its own domain ---- *)
  let box = Atomic.make None in
  let server =
    Domain.spawn (fun () ->
        let srv = Server.start_engine ~engine:(Server.engine_of_sharded sh) (`Unix sock) in
        Atomic.set box (Some srv);
        Server.wait srv;
        Server.kill srv ~torn:true)
  in
  let rec await () = match Atomic.get box with Some s -> s | None -> Unix.sleepf 0.001; await () in
  let srv = await () in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    fd
  in
  let conns = Array.init 2 (fun _ -> connect ()) in
  settle ();
  let store0 = read_named "store" and shard0 = read_named "shard" and serve0 = read_named "serve" in
  (* ---- timed phase: reference step, then the overload step ---- *)
  let run_step ?stop_after reqs =
    let phase0 = now_ns () + 1_000_000 in
    let stop = Option.map (fun d -> phase0 + d) stop_after in
    let outcomes, late, backlog_us = drive ?stop ~conns ~phase0 reqs in
    { outcomes; late; backlog_us }
  in
  let ref_step = run_step ref_reqs in
  let store1 = read_named "store" and shard1 = read_named "shard" and serve1 = read_named "serve" in
  let overload_t0 = now_ns () in
  let overload = run_step ~stop_after:overload_ns overload_reqs in
  let overload_s = s_of_ns (now_ns () - overload_t0) in
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
  (* ---- crash the server (torn WAL tail), then recover ---- *)
  Server.request_stop srv;
  Domain.join server;
  let failed = ref 0 and notes = ref [] in
  let fail msg =
    incr failed;
    if List.length !notes < 5 then notes := msg :: !notes
  in
  (* the model: preload + every acknowledged write *)
  let all = Array.append ref_step.outcomes overload.outcomes in
  let attempted = Array.length all in
  let texts = Hashtbl.create 4096 in
  Array.iteri (fun i d -> Hashtbl.replace texts i d) docs;
  let live = Hashtbl.copy texts in
  Array.iter
    (fun o ->
      match (o.o_req.kind, o.o_resp) with
      | Insert d, (Protocol.Id id | Protocol.Int id) ->
        if Hashtbl.mem texts id then fail (Printf.sprintf "insert acknowledged a reused id %d" id);
        Hashtbl.replace texts id d;
        Hashtbl.replace live id d
      | Delete id, (Protocol.Bool true | Protocol.Int 1) -> Hashtbl.remove live id
      | Delete id, (Protocol.Bool false | Protocol.Int 0) -> fail (Printf.sprintf "delete of live document %d refused" id)
      | Extract (doc, off, len), Protocol.Text t ->
        if t <> String.sub docs.(doc) off len then fail (Printf.sprintf "extract %d" doc)
      | Count _, (Protocol.Int c | Protocol.Id c) -> if c < 0 then fail "negative count"
      | Search p, Protocol.Hits hs ->
        (* every reported occurrence must be a real one *)
        List.iter
          (fun (d, off) ->
            if d >= 0 then
              match Hashtbl.find_opt texts d with
              | Some t ->
                if off < 0 || off + String.length p > String.length t || String.sub t off (String.length p) <> p
                then fail (Printf.sprintf "search %S reported a false occurrence" p)
              | None -> ())
          hs
      | _, Protocol.Err e -> fail ("error response: " ^ e)
      | _, r -> fail ("unexpected response " ^ Protocol.response_to_string r))
    all;
  let rec_times = ref [] and store = ref None in
  for r = 1 to recover_reps do
    Option.iter (fun s -> Sh.kill s ~torn:true) !store;
    settle ();
    let t0 = now_ns () in
    let sh', _ = Sh.open_store ~config ~shards ~dir () in
    rec_times := s_of_ns (now_ns () - t0) :: !rec_times;
    store := Some sh';
    if Sh.doc_count sh' <> Hashtbl.length live then
      fail (Printf.sprintf "recovery %d: %d live documents, %d acknowledged" r (Sh.doc_count sh') (Hashtbl.length live));
    Hashtbl.iter
      (fun id t ->
        if Sh.extract sh' ~doc:id ~off:0 ~len:(String.length t) <> Some t then
          fail (Printf.sprintf "recovery %d: acknowledged document %d lost" r id))
      live
  done;
  let sh = Option.get !store in
  (* sampled answers against the model, on the recovered store *)
  let model_docs = List.sort compare (Hashtbl.fold (fun id t acc -> (id, t) :: acc) live []) in
  let checked = ref 0 in
  Array.iteri
    (fun i p ->
      if i mod 16 = 0 then begin
        incr checked;
        let want = Model.occurrences model_docs p in
        let got = List.filter (fun (d, _) -> d >= 0) (Sh.search sh p) in
        if got <> want then fail (Printf.sprintf "search %S after recovery" p);
        if Sh.count sh p <> List.length want then fail (Printf.sprintf "count %S after recovery" p)
      end)
    patterns;
  (* space and disk after the final checkpoint *)
  let idxs = Array.map Durable.index (Option.get (Sh.backing_stores sh)) in
  let bits =
    fratio
      (Array.fold_left (fun a i -> a + Di.space_bits i) 0 idxs)
      (Array.fold_left (fun a i -> a + Di.total_symbols i) 0 idxs)
  in
  Sh.checkpoint sh;
  let raw = Hashtbl.fold (fun _ t a -> a + String.length t) live 0 in
  let disk = du dir in
  Sh.close sh;
  (* ---- metrics ---- *)
  let lat step ~writes =
    let s = Samples.create () in
    Array.iter
      (fun o -> if is_write o.o_req.kind = writes then Samples.add s (us_of_ns (o.o_done - o.o_due)))
      step.outcomes;
    Samples.sorted s
  in
  let late_p99 = pct (Samples.sorted ref_step.late) 0.99 in
  let invalid msg = if strict then fail ("invalid: " ^ msg) else notes := ("invalid: " ^ msg) :: !notes in
  if late_p99 > late_limit_us then
    invalid (Printf.sprintf "the generator ran %.0f us late at p99 (limit %.0f)" late_p99 late_limit_us);
  if ref_step.backlog_us > backlog_limit_us then
    invalid (Printf.sprintf "backlog %.0f us overdue at %d ops/s" ref_step.backlog_us ref_rate);
  let q = lat ref_step ~writes:false and u = lat ref_step ~writes:true in
  if pct q 0.99 > p99_limit_us then
    invalid (Printf.sprintf "query p99 %.0f us over the %.0f us limit at %d ops/s" (pct q 0.99) p99_limit_us ref_rate);
  let sustained = float_of_int (Array.length overload.outcomes) /. overload_s in
  let first = ref_step.outcomes.(0).o_due in
  let last = Array.fold_left (fun a o -> max a o.o_done) 0 overload.outcomes in
  let e2e =
    [
      m "setup_s" (median !setup_times) "s";
      m "query_p50_us" (pct q 0.50) "us";
      m "query_p99_us" (pct q 0.99) "us";
      m "update_p50_us" (pct u 0.50) "us";
      m "update_p99_us" (pct u 0.99) "us";
      m "ops_per_s" (float_of_int (Array.length all) /. s_of_ns (last - first)) "ops/s";
      m "sustained_ops_s" sustained "ops/s";
      m "recover_s" (median !rec_times) "s";
      m "bits_per_symbol" bits "bits";
      m "disk_bytes_per_raw_byte" (fratio disk raw) "ratio";
    ]
  in
  let layers =
    if not trace then []
    else begin
      let cd = counter_delta ~before:store0 ~after:store1 and hd = hist_delta ~before:store0 ~after:store1 in
      let shc = counter_delta ~before:shard0 ~after:shard1 and shh = hist_delta ~before:shard0 ~after:shard1 in
      let svc = counter_delta ~before:serve0 ~after:serve1 and svh = hist_delta ~before:serve0 ~after:serve1 in
      let writes = Array.fold_left (fun a o -> if is_write o.o_req.kind then a + 1 else a) 0 ref_step.outcomes in
      let _, wal_ns = hd "wal_append_ns" in
      let _, gather_ns = shh "gather_ns" in
      let bn, bsum = svh "batch_size" in
      let _, flush_ns = svh "flush_ns" in
      let rn, req_ns = svh "request_ns" in
      let request_us = ratio (float_of_int req_ns /. 1e3) (float_of_int rn) in
      let mean_lat = Samples.create () in
      Array.iter (fun o -> Samples.add mean_lat (us_of_ns (o.o_done - o.o_due))) ref_step.outcomes;
      (* spans: each request of the reference step from due to reply, its
         round trip from send to reply as the child. They are built from
         the timestamps every run takes anyway, after the timed phase, so
         tracing costs the served run nothing. *)
      Util.Trace.on := true;
      Array.iteri
        (fun i o ->
          let name =
            match o.o_req.kind with
            | Insert _ -> "insert"
            | Delete _ -> "delete"
            | Search _ -> "search"
            | Count _ -> "count"
            | Extract _ -> "extract"
          in
          let root = Util.Trace.record ~req:i ("client." ^ name) o.o_due o.o_done in
          ignore (Util.Trace.record ~parent:root ~req:i "serve.round_trip" o.o_sent o.o_done))
        ref_step.outcomes;
      Util.Trace.on := false;
      let ref_end = Array.fold_left (fun a o -> max a o.o_done) 0 ref_step.outcomes in
      let dur = s_of_ns (Array.fold_left (fun a o -> max a o.o_due) 0 ref_step.outcomes - first) in
      [
        m "store.wal_busy_us_per_update" (ratio (float_of_int wal_ns /. 1e3) (float_of_int writes)) "us";
        m "store.fsyncs_per_update" (fratio (cd "wal_fsyncs") writes) "count";
        m "shard.gather_busy_us_per_query" (ratio (float_of_int gather_ns /. 1e3) (float_of_int (shc "scatter_queries"))) "us";
        m "shard.scatter_queries" (float_of_int (shc "scatter_queries")) "count";
        m "serve.batch_size_mean" (fratio bsum bn) "count";
        m "serve.flush_busy_us_per_batch" (ratio (float_of_int flush_ns /. 1e3) (float_of_int (svc "batches"))) "us";
        m "serve.request_busy_us_per_op" request_us "us";
        m "serve.wait_us_per_op" (Samples.mean mean_lat -. request_us) "us";
        m "loadgen.late_p99_us" late_p99 "us";
        m "loadgen.offered_ops_s" (ratio (float_of_int (Array.length ref_step.outcomes)) dur) "ops/s";
        m "trace.span_coverage"
          (fratio (Util.Trace.root_cover ~lo:first ~hi:ref_end) (ref_end - first))
          "ratio";
        m "trace.overhead_pct" 0. "%";
        m "trace.spans" (float_of_int !Util.Trace.n) "count";
      ]
    end
  in
  let notes =
    Printf.sprintf "served: K=%d, %d preloaded docs; reference step %d ops/s (%d queries, %d writes); overload step completed %d ops in %.2fs"
      shards n_docs ref_rate (Array.length q) (Array.length u) (Array.length overload.outcomes) overload_s
    :: Printf.sprintf "%d sampled patterns checked after recovery" !checked
    :: List.rev !notes
  in
  { e2e; layers; attempted; failed = !failed; notes }
