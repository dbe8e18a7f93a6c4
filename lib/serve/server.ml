(* Socket server with a group-commit write path; contracts documented
   in server.mli and DESIGN.md section 11.

   Threading discipline: the accept loop and each connection run on
   their own (lightweight) threads; the store is mutated ONLY by the
   single writer thread, so the engine keeps its single-writer
   contract while queries go through the epoch-published read plane
   from any thread. Connection threads communicate with the writer
   through a bounded queue of per-request mailboxes (mutex + condvar
   each), and with the accept loop through the connection registry. *)

module Trace = Dsdg_check.Trace
module Di = Dsdg_core.Dynamic_index
module Durable = Dsdg_store.Durable
module Wal = Dsdg_store.Wal
module Snapshot = Dsdg_store.Snapshot
open Dsdg_obs

let obs = Obs.scope "serve"
let c_accepted = Obs.counter obs "conns_accepted"
let c_rejected = Obs.counter obs "conns_rejected"
let c_closed = Obs.counter obs "conns_closed"
let c_frames = Obs.counter obs "frames"
let c_frames_bad = Obs.counter obs "frames_bad"
let c_queries = Obs.counter obs "queries"
let c_writes = Obs.counter obs "writes"
let c_batches = Obs.counter obs "batches"
let g_conns = Obs.gauge obs "conns_open"
let h_batch_size = Obs.histogram obs "batch_size"
let h_flush_ns = Obs.histogram obs "flush_ns"
let h_request_ns = Obs.histogram obs "request_ns"

(* Leader-side replication counters; the follower's replay-side
   counters live in the same registered scope (Obs.scope is
   get-or-create), so one snapshot shows both halves. *)
let obs_repl = Obs.scope "repl"
let c_frames_shipped = Obs.counter obs_repl "frames_shipped"
let c_snap_ships = Obs.counter obs_repl "snapshots_shipped"
let c_repl_polls = Obs.counter obs_repl "polls_answered"

type config = {
  max_frame : int;
  max_batch : int;
  max_conns : int;
  read_timeout : float;
  write_timeout : float;
}

let default_config =
  { max_frame = 1 lsl 20; max_batch = 256; max_conns = 1024; read_timeout = 30.; write_timeout = 30. }

type listen = [ `Unix of string | `Tcp of string * int ]

exception Killed

exception Redirect of string

let () =
  Printexc.register_printer (function Redirect reason -> Some reason | _ -> None)

(* What the server needs from a collection: the group-commit batch
   apply, view-plane queries, a stats snapshot, and lifecycle. One
   record instead of a functor so a server can front a plain durable
   store or a sharded one (or anything else) without the socket/thread
   machinery knowing. *)
(* Answer to one replication poll: records up to the stream's durable
   shipping bound, a snapshot bootstrap when the asked-for position was
   compacted away, or a refusal. *)
type repl_reply =
  | Rp_recs of { recs : (int * string) list; bound : int; epoch : int }
  | Rp_snapshot of { path : string; serial : int; bound : int; epoch : int }
  | Rp_error of string

type engine = {
  eng_describe : string;
  eng_apply_batch : Trace.op list -> Durable.batch_result list;
  eng_search : string -> (int * int) list;
  eng_count : string -> int;
  eng_extract : doc:int -> off:int -> len:int -> string option;
  eng_mem : int -> bool;
  eng_stats : unit -> (string * int) list;
  eng_repl : stream:string -> from:int -> repl_reply;
  eng_checkpoint : unit -> unit;
  eng_close : unit -> unit;
  eng_kill : torn:bool -> unit;
}

(* Ship WAL records [from, bound) by tailing the live log file.  A
   fresh bounded cursor per poll keeps this robust against concurrent
   compaction (rotation detection is the cursor's job); the log is
   compacted at every checkpoint so the re-read stays proportional to
   the WAL tail, not history.  [Tail_gap] means [from] predates the
   log: first try the bounded {!Wal.archives} ring compaction left
   behind -- the segment covering [from] still holds the records, so a
   lagging follower catches up by ordinary record shipping -- and only
   when [from] predates the archives too fall back to the newest
   snapshot, whose serial the follower resumes from. *)
let wal_repl ~wal_path ~dir ~bound ~epoch ~from =
  if from >= bound then Rp_recs { recs = []; bound; epoch }
  else
    match
      let c = Wal.tail ~from wal_path in
      Fun.protect ~finally:(fun () -> Wal.tail_close c) (fun () -> Wal.tail_poll ~limit:bound c)
    with
    | recs ->
      Rp_recs { recs = List.map (fun (s, op) -> (s, Trace.op_to_string op)) recs; bound; epoch }
    | exception Wal.Tail_gap _ -> (
      (* an archive segment is an ordinary (immutable) log file, so the
         same cursor machinery reads it; one poll serves what the
         segment holds and the follower's next poll advances into the
         next segment or the live log *)
      let archived =
        try
          match List.find_opt (fun (_, e) -> e > from) (Wal.archives wal_path) with
          | None -> []
          | Some (path, _) ->
            let c = Wal.tail ~from path in
            Fun.protect
              ~finally:(fun () -> Wal.tail_close c)
              (fun () -> Wal.tail_poll ~limit:bound c)
        with Wal.Tail_gap _ -> []
      in
      match archived with
      | _ :: _ as recs ->
        Rp_recs { recs = List.map (fun (s, op) -> (s, Trace.op_to_string op)) recs; bound; epoch }
      | [] -> (
        match Snapshot.list ~dir with
        | (path, serial) :: _ when serial > from -> Rp_snapshot { path; serial; bound; epoch }
        | _ ->
          Rp_error
            (Printf.sprintf "stream position %d was compacted away and no snapshot covers it" from)
        ))

let engine_of_store store =
  let idx = Durable.index store in
  {
    eng_describe = Di.describe idx;
    eng_apply_batch = (fun ops -> Durable.apply_batch store ops);
    eng_search = (fun p -> Di.query idx (fun v -> Di.view_search v p));
    eng_count = (fun p -> Di.query idx (fun v -> Di.view_count v p));
    eng_extract =
      (fun ~doc ~off ~len -> Di.query idx (fun v -> Di.view_extract v ~doc ~off ~len));
    eng_mem = (fun id -> Di.query idx (fun v -> Di.view_mem v id));
    eng_stats =
      (fun () ->
        let v = Di.view idx in
        [
          ("docs", Di.view_doc_count v);
          ("symbols", Di.view_total_symbols v);
          ("epoch", Di.view_epoch v);
        ]);
    eng_repl =
      (fun ~stream ~from ->
        if stream <> "wal" then Rp_error (Printf.sprintf "unknown stream %S" stream)
        else
          wal_repl ~wal_path:(Durable.wal_path store) ~dir:(Durable.dir store)
            ~bound:(Durable.durable_serial store)
            ~epoch:(Di.view_epoch (Di.view idx))
            ~from);
    eng_checkpoint = (fun () -> Durable.checkpoint store);
    eng_close = (fun () -> Durable.close store);
    eng_kill = (fun ~torn -> Durable.kill store ~torn);
  }

let engine_of_sharded s =
  let module Sh = Dsdg_shard.Sharded_index in
  {
    eng_describe = Sh.describe s;
    eng_apply_batch = (fun ops -> Sh.apply_batch s ops);
    eng_search = (fun p -> Sh.search s p);
    eng_count = (fun p -> Sh.count s p);
    eng_extract = (fun ~doc ~off ~len -> Sh.extract s ~doc ~off ~len);
    eng_mem = (fun id -> Sh.mem s id);
    eng_stats =
      (fun () ->
        let ev = Sh.epoch_vector s in
        [
          ("docs", Sh.doc_count s);
          ("symbols", Sh.total_symbols s);
          ("epoch", Array.fold_left ( + ) 0 ev);
          ("shards", Sh.shards s);
        ]);
    eng_repl =
      (fun ~stream ~from ->
        match Sh.backing_stores s with
        | None -> Rp_error "an in-memory index has no replication streams"
        | Some stores ->
          if stream = "meta" then begin
            (* [meta_records] is the shipping bound: events are fsynced
               at append under any policy but Never, mirroring the WAL
               durable bound's Never degradation *)
            let bound = Sh.meta_records s in
            let lines = Sh.meta_lines_from s ~from in
            let recs =
              List.filteri (fun i _ -> from + i < bound) lines
              |> List.mapi (fun i l -> (from + i, l))
            in
            Rp_recs { recs; bound; epoch = (Sh.epoch_vector s).(Sh.shards s) }
          end
          else
            match
              if String.length stream > 3 && String.sub stream 0 3 = "wal" then
                int_of_string_opt (String.sub stream 3 (String.length stream - 3))
              else None
            with
            | Some k when k >= 0 && k < Sh.shards s -> (
              let st = stores.(k) in
              match
                wal_repl ~wal_path:(Durable.wal_path st) ~dir:(Durable.dir st)
                  ~bound:(Durable.durable_serial st)
                  ~epoch:(Sh.epoch_vector s).(k)
                  ~from
              with
              | Rp_snapshot _ ->
                (* per-shard snapshots are not mutually consistent with
                   a meta prefix; only a pinned backup is *)
                Rp_error
                  (Printf.sprintf
                     "shard %d compacted past position %d; seed the replica from a pinned backup"
                     k from)
              | reply -> reply)
            | _ -> Rp_error (Printf.sprintf "unknown stream %S" stream));
    eng_checkpoint = (fun () -> Sh.checkpoint s);
    eng_close = (fun () -> Sh.close s);
    eng_kill = (fun ~torn -> Sh.kill s ~torn);
  }

(* A replica's engine: [current ()] is the engine of the replica store
   as it is now (a re-seed swaps the handle), every mutation is refused
   with a redirect naming the leader, checkpoint is a no-op (the tail
   thread owns the store's write plane). *)
let engine_readonly ~current ~leader ~stats ~close ~kill =
  {
    eng_describe = Printf.sprintf "replica of %s: %s" leader (current ()).eng_describe;
    eng_apply_batch =
      (fun _ -> raise (Redirect (Printf.sprintf "read-only replica; the leader is %s" leader)));
    eng_search = (fun p -> (current ()).eng_search p);
    eng_count = (fun p -> (current ()).eng_count p);
    eng_extract = (fun ~doc ~off ~len -> (current ()).eng_extract ~doc ~off ~len);
    eng_mem = (fun id -> (current ()).eng_mem id);
    eng_stats = (fun () -> (current ()).eng_stats () @ stats ());
    eng_repl =
      (fun ~stream:_ ~from:_ -> Rp_error "replicas do not ship streams; poll the leader");
    eng_checkpoint = (fun () -> ());
    eng_close = close;
    eng_kill = kill;
  }

(* One write request parked in the batching queue: the connection
   thread sleeps on the mailbox until the writer commits its batch. *)
type wreq = {
  w_op : Trace.op;
  w_mu : Mutex.t;
  w_cv : Condition.t;
  mutable w_result : (Durable.batch_result, exn) result option;
}

type t = {
  cfg : config;
  engine : engine;
  listen_fd : Unix.file_descr;
  sock_path : string option;
  tcp_port : int option;
  stop_rd : Unix.file_descr;
  stop_wr : Unix.file_descr;
  stopping : bool Atomic.t;  (* drain requested: no new connections *)
  discard : bool Atomic.t;  (* crash simulation: fail writes, do not apply *)
  mutable shut : bool;  (* stop/kill ran to completion (under c_mu) *)
  (* write queue *)
  q_mu : Mutex.t;
  q_nonempty : Condition.t;
  q_space : Condition.t;
  wq : wreq Queue.t;
  q_bound : int;
  mutable writer_stop : bool;  (* set only after connection threads are gone *)
  (* connection registry *)
  c_mu : Mutex.t;
  conns : (int, Unix.file_descr) Hashtbl.t;
  mutable conn_threads : Thread.t list;
  mutable next_conn_id : int;
  mutable accept_thread : Thread.t option;
  mutable writer_thread : Thread.t option;
  served : int Atomic.t;
}

let port t = t.tcp_port
let ops_served t = Atomic.get t.served

(* --- the group-commit writer --- *)

let deliver w r =
  Mutex.lock w.w_mu;
  w.w_result <- Some r;
  Condition.broadcast w.w_cv;
  Mutex.unlock w.w_mu

let writer_loop t () =
  let continue = ref true in
  while !continue do
    Mutex.lock t.q_mu;
    while Queue.is_empty t.wq && not t.writer_stop do
      Condition.wait t.q_nonempty t.q_mu
    done;
    if Queue.is_empty t.wq then begin
      (* writer_stop and fully drained *)
      Mutex.unlock t.q_mu;
      continue := false
    end
    else begin
      let batch = ref [] and n = ref 0 in
      while (not (Queue.is_empty t.wq)) && !n < t.cfg.max_batch do
        batch := Queue.pop t.wq :: !batch;
        incr n
      done;
      Condition.broadcast t.q_space;
      Mutex.unlock t.q_mu;
      let batch = List.rev !batch in
      if Atomic.get t.discard then List.iter (fun w -> deliver w (Error Killed)) batch
      else begin
        let t0 = Obs.start () in
        let results =
          (* one group commit for the whole batch (per shard, one WAL
             append + one fsync each); a failure fails every request of
             the batch -- none of them was acknowledged *)
          try List.map Result.ok (t.engine.eng_apply_batch (List.map (fun w -> w.w_op) batch))
          with e -> List.map (fun _ -> Error e) batch
        in
        Obs.stop h_flush_ns t0;
        Obs.incr c_batches;
        Obs.observe h_batch_size !n;
        List.iter2 deliver batch results
      end
    end
  done

(* Enqueue one mutation and sleep until its batch commits.
   Backpressure: blocks while the queue is at its bound. *)
let commit_write t op =
  let w = { w_op = op; w_mu = Mutex.create (); w_cv = Condition.create (); w_result = None } in
  Mutex.lock t.q_mu;
  while Queue.length t.wq >= t.q_bound && not t.writer_stop do
    Condition.wait t.q_space t.q_mu
  done;
  if t.writer_stop then begin
    Mutex.unlock t.q_mu;
    Error (Failure "server is shutting down")
  end
  else begin
    Queue.push w t.wq;
    Condition.signal t.q_nonempty;
    Mutex.unlock t.q_mu;
    Mutex.lock w.w_mu;
    while w.w_result = None do
      Condition.wait w.w_cv w.w_mu
    done;
    Mutex.unlock w.w_mu;
    match w.w_result with Some r -> r | None -> assert false
  end

(* --- request dispatch --- *)

let stats_response t =
  Protocol.Stats_of
    (t.engine.eng_stats ()
    @ [
        ("served", Atomic.get t.served);
        ("conns", Obs.gauge_value g_conns);
        ("batches", Obs.value c_batches);
      ])

(* Serve one replication poll as a bounded frame batch, [hb]-terminated.
   Snapshot files ship in bounded [%S]-escaped chunks (escaping expands
   at most 4x, so 32 KiB chunks stay far under the 1 MiB frame bound). *)
let repl_frames t ~stream ~from =
  Obs.incr c_repl_polls;
  match t.engine.eng_repl ~stream ~from with
  | Rp_error reason -> `Reply (Protocol.Err reason)
  | Rp_recs { recs; bound; epoch } ->
    Obs.add c_frames_shipped (List.length recs);
    `Multi
      (List.map (fun (serial, body) -> Protocol.Rec (serial, body)) recs
      @ [ Protocol.Hb { bound; epoch } ])
  | Rp_snapshot { path; serial; bound; epoch } -> (
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error reason -> `Reply (Protocol.Err reason)
    | raw ->
      Obs.incr c_snap_ships;
      let chunk_len = 32768 in
      let chunks = (String.length raw + chunk_len - 1) / chunk_len in
      let frames = ref [ Protocol.Hb { bound; epoch } ] in
      for i = chunks - 1 downto 0 do
        let off = i * chunk_len in
        frames :=
          Protocol.Chunk (String.sub raw off (min chunk_len (String.length raw - off)))
          :: !frames
      done;
      `Multi (Protocol.Snap { serial; chunks } :: !frames))

(* [`Reply] keeps the connection; [`Close] hangs up after the reply.
   Semantic errors on well-formed frames (empty pattern, non-service
   op) reply [err] and keep the connection -- only protocol violations
   kill it. *)
let respond t (req : Protocol.request) =
  match req with
  | Protocol.Ping -> `Reply Protocol.Pong
  | Protocol.Quit -> `Close Protocol.Bye
  | Protocol.Stats -> `Reply (stats_response t)
  | Protocol.Repl { stream; from } -> repl_frames t ~stream ~from
  | Protocol.Op ((Trace.Insert _ | Trace.Delete _) as op) -> (
    Obs.incr c_writes;
    match commit_write t op with
    | Ok (Durable.Br_inserted id) -> `Reply (Protocol.Id id)
    | Ok (Durable.Br_deleted ok) -> `Reply (Protocol.Bool ok)
    | Error e -> `Reply (Protocol.Err (Printexc.to_string e)))
  | Protocol.Op op -> (
    Obs.incr c_queries;
    try
      match op with
      | Trace.Search p -> `Reply (Protocol.Hits (t.engine.eng_search p))
      | Trace.Count p -> `Reply (Protocol.Int (t.engine.eng_count p))
      | Trace.Extract { doc; off; len } -> (
        match t.engine.eng_extract ~doc ~off ~len with
        | Some s -> `Reply (Protocol.Text s)
        | None -> `Reply Protocol.No_text)
      | Trace.Mem id -> `Reply (Protocol.Bool (t.engine.eng_mem id))
      | Trace.Drain -> `Reply (Protocol.Err "drain is not a service operation")
      | Trace.Insert _ | Trace.Delete _ -> assert false
    with Invalid_argument reason -> `Reply (Protocol.Err reason))

(* --- connections --- *)

let unregister t id fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.lock t.c_mu;
  Hashtbl.remove t.conns id;
  let open_now = Hashtbl.length t.conns in
  Mutex.unlock t.c_mu;
  Obs.incr c_closed;
  Obs.set_gauge g_conns open_now

let conn_loop t id fd () =
  let r = Protocol.reader ~max_frame:t.cfg.max_frame fd in
  let send resp = Protocol.write_frame fd (Protocol.response_to_string resp) in
  let alive = ref true in
  (try
     while !alive do
       match Protocol.read_frame r with
       | `Eof -> alive := false
       | `Too_long ->
         (* framing is gone; the err frame is best-effort *)
         Obs.incr c_frames_bad;
         (try send (Protocol.Err (Printf.sprintf "frame exceeds max-frame (%d bytes)" t.cfg.max_frame))
          with Unix.Unix_error _ -> ());
         alive := false
       | `Frame line -> (
         Obs.incr c_frames;
         let t0 = Obs.start () in
         match Protocol.parse_request line with
         | Error reason ->
           (* a malformed frame kills the connection, not the server *)
           Obs.incr c_frames_bad;
           (try send (Protocol.Err reason) with Unix.Unix_error _ -> ());
           alive := false
         | Ok req -> (
           match respond t req with
           | `Reply resp ->
             send resp;
             Atomic.incr t.served;
             Obs.stop h_request_ns t0
           | `Multi resps ->
             List.iter send resps;
             Atomic.incr t.served;
             Obs.stop h_request_ns t0
           | `Close resp ->
             (try send resp with Unix.Unix_error _ -> ());
             Atomic.incr t.served;
             alive := false))
     done
   with Unix.Unix_error _ ->
     (* read/write timeout, reset, or our own shutdown during drain *)
     ());
  unregister t id fd

let reject fd =
  Obs.incr c_rejected;
  (try Protocol.write_frame fd (Protocol.response_to_string (Protocol.Err "connection limit reached"))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t () =
  let continue = ref true in
  while !continue do
    match Unix.select [ t.listen_fd; t.stop_rd ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | rd, _, _ ->
      if List.mem t.stop_rd rd || Atomic.get t.stopping then continue := false
      else if List.mem t.listen_fd rd then begin
        match Unix.accept ~cloexec:true t.listen_fd with
        | exception Unix.Unix_error _ ->
          (* listener closed under us, or transient (EMFILE): back off *)
          if Atomic.get t.stopping then continue := false else Thread.yield ()
        | fd, _ ->
          if t.cfg.read_timeout > 0. then
            (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.read_timeout
             with Unix.Unix_error _ -> ());
          if t.cfg.write_timeout > 0. then
            (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.write_timeout
             with Unix.Unix_error _ -> ());
          Mutex.lock t.c_mu;
          let n = Hashtbl.length t.conns in
          if n >= t.cfg.max_conns then begin
            Mutex.unlock t.c_mu;
            reject fd
          end
          else begin
            let id = t.next_conn_id in
            t.next_conn_id <- id + 1;
            Hashtbl.replace t.conns id fd;
            let th = Thread.create (conn_loop t id fd) () in
            t.conn_threads <- th :: t.conn_threads;
            Mutex.unlock t.c_mu;
            Obs.incr c_accepted;
            Obs.set_gauge g_conns (n + 1)
          end
      end
  done

(* --- lifecycle --- *)

let ignore_sigpipe () =
  if not Sys.win32 then
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let start_engine ?(config = default_config) ~engine listen =
  if config.max_frame < 16 then invalid_arg "Server.start: max_frame < 16";
  if config.max_batch < 1 then invalid_arg "Server.start: max_batch < 1";
  if config.max_conns < 1 then invalid_arg "Server.start: max_conns < 1";
  ignore_sigpipe ();
  let domain, addr, sock_path =
    match listen with
    | `Unix path ->
      (try if (Unix.stat path).Unix.st_kind = Unix.S_SOCK then Unix.unlink path
       with Unix.Unix_error _ -> ());
      (Unix.PF_UNIX, Unix.ADDR_UNIX path, Some path)
    | `Tcp (host, p) -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, p), None)
  in
  let listen_fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try
     if sock_path = None then Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd addr;
     Unix.listen listen_fd 128
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let tcp_port =
    match listen with
    | `Unix _ -> None
    | `Tcp _ -> (
      match Unix.getsockname listen_fd with
      | Unix.ADDR_INET (_, p) -> Some p
      | Unix.ADDR_UNIX _ -> None)
  in
  let stop_rd, stop_wr = Unix.pipe ~cloexec:true () in
  let t =
    {
      cfg = config;
      engine;
      listen_fd;
      sock_path;
      tcp_port;
      stop_rd;
      stop_wr;
      stopping = Atomic.make false;
      discard = Atomic.make false;
      shut = false;
      q_mu = Mutex.create ();
      q_nonempty = Condition.create ();
      q_space = Condition.create ();
      wq = Queue.create ();
      q_bound = max 64 (4 * config.max_batch);
      writer_stop = false;
      c_mu = Mutex.create ();
      conns = Hashtbl.create 64;
      conn_threads = [];
      next_conn_id = 0;
      accept_thread = None;
      writer_thread = None;
      served = Atomic.make 0;
    }
  in
  t.writer_thread <- Some (Thread.create (writer_loop t) ());
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t

let start ?config ~store listen = start_engine ?config ~engine:(engine_of_store store) listen

let request_stop t =
  if not (Atomic.exchange t.stopping true) then
    (* self-pipe wake-up for the accept loop; a single byte suffices
       and this is async-signal-safe enough for a Sys.Signal_handle *)
    try ignore (Unix.write t.stop_wr (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> ()

let wait t =
  while not (Atomic.get t.stopping) do
    Thread.delay 0.05
  done

(* Tear down sockets and threads; shared by [stop] and [kill]. The
   caller decides what happens to the store afterwards. *)
let teardown t =
  request_stop t;
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  t.accept_thread <- None;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.sock_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
  | None -> ());
  (* stop reading from every open connection: in-flight requests finish
     and the threads see EOF instead of waiting out their timeout *)
  Mutex.lock t.c_mu;
  let threads = t.conn_threads in
  t.conn_threads <- [];
  Hashtbl.iter
    (fun _ fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.conns;
  Mutex.unlock t.c_mu;
  List.iter Thread.join threads;
  (* connection threads are gone: let the writer drain what remains *)
  Mutex.lock t.q_mu;
  t.writer_stop <- true;
  Condition.broadcast t.q_nonempty;
  Condition.broadcast t.q_space;
  Mutex.unlock t.q_mu;
  (match t.writer_thread with Some th -> Thread.join th | None -> ());
  t.writer_thread <- None;
  (try Unix.close t.stop_rd with Unix.Unix_error _ -> ());
  try Unix.close t.stop_wr with Unix.Unix_error _ -> ()

let stop t =
  let first =
    Mutex.lock t.c_mu;
    let f = not t.shut in
    t.shut <- true;
    Mutex.unlock t.c_mu;
    f
  in
  if first then begin
    teardown t;
    (* publish + checkpoint: the next open replays nothing *)
    t.engine.eng_checkpoint ();
    t.engine.eng_close ()
  end

let kill t ~torn =
  let first =
    Mutex.lock t.c_mu;
    let f = not t.shut in
    t.shut <- true;
    Mutex.unlock t.c_mu;
    f
  in
  if first then begin
    (* unacknowledged writes die with the crash: the writer fails them
       without touching the WAL *)
    Atomic.set t.discard true;
    teardown t;
    t.engine.eng_kill ~torn
  end
