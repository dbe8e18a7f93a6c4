(* Socket server with a group-commit write path; contracts documented
   in server.mli and DESIGN.md section 11.

   Threading discipline: the accept loop and each connection run on
   their own (lightweight) threads; the collection is mutated ONLY by
   the single writer thread, so it keeps its single-writer contract
   while queries go through the epoch-published read plane from any
   thread. Connection threads communicate with the writer
   through a bounded queue of per-request mailboxes (mutex + condvar
   each), and with the accept loop through the connection registry. *)

module Trace = Dsdg_check.Trace
module Subject = Dsdg_check.Subject
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

type config = { max_frame : int; max_batch : int; max_conns : int; timeout : float }

let default_config = { max_frame = 1 lsl 20; max_batch = 256; max_conns = 1024; timeout = 30. }

type listen = [ `Unix of string | `Tcp of string * int ]

exception Killed

exception Redirect of string

let () =
  Printexc.register_printer (function Redirect reason -> Some reason | _ -> None)

(* One write request parked in the batching queue: the connection
   thread sleeps on the mailbox until the writer commits its batch. *)
type wreq = {
  w_op : Trace.op;
  w_mu : Mutex.t;
  w_cv : Condition.t;
  mutable w_result : (Subject.batch_result, exn) result option;
}

type t = {
  cfg : config;
  coll : Subject.t;
  listen_fd : Unix.file_descr;
  sock_path : string option;
  tcp_port : int option;
  stop_rd : Unix.file_descr;
  stop_wr : Unix.file_descr;
  stopping : bool Atomic.t;  (* drain requested: no new connections *)
  discard : bool Atomic.t;  (* crash simulation: fail writes, do not apply *)
  flush_wanted : bool Atomic.t;  (* a replication poll asked for the acked tail *)
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

(* The idle flush: a replication poll asks for it ([request_flush]),
   and the writer, once its queue is empty, makes what it logged
   durable, so under a lazy sync policy an acked tail still reaches
   the shipping bound by a later poll.  Without followers [--sync N]
   keeps its amortized fsyncs.  A crash simulation skips the flush, and
   a failed one leaves the tail to the next batch's sync. *)
let writer_loop t () =
  let continue = ref true in
  while !continue do
    Mutex.lock t.q_mu;
    while Queue.is_empty t.wq && not t.writer_stop do
      if Atomic.get t.flush_wanted && not (Atomic.get t.discard) then begin
        Atomic.set t.flush_wanted false;
        Mutex.unlock t.q_mu;
        (try t.coll.flush () with Unix.Unix_error _ | Sys_error _ -> ());
        Mutex.lock t.q_mu
      end
      else Condition.wait t.q_nonempty t.q_mu
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
          try List.map Result.ok (t.coll.apply_batch (List.map (fun w -> w.w_op) batch))
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
    (t.coll.stats ()
    @ [
        ("served", Atomic.get t.served);
        ("conns", Obs.gauge_value g_conns);
        ("batches", Obs.value c_batches);
      ])

(* Wake the writer for an idle flush (taking [q_mu], so a writer about
   to wait cannot miss the signal). *)
let request_flush t =
  if not (Atomic.exchange t.flush_wanted true) then begin
    Mutex.lock t.q_mu;
    Condition.signal t.q_nonempty;
    Mutex.unlock t.q_mu
  end

(* Serve one replication poll as a bounded frame batch, [hb]-terminated.
   Snapshot files ship in bounded [%S]-escaped chunks (escaping expands
   at most 4x, so 32 KiB chunks stay far under the 1 MiB frame bound). *)
let repl_frames t ~stream ~from =
  Obs.incr c_repl_polls;
  request_flush t;
  match t.coll.repl ~stream ~from with
  | Subject.Rp_error reason -> `Reply (Protocol.Err reason)
  | Subject.Rp_recs { recs; bound; epoch } ->
    Obs.add c_frames_shipped (List.length recs);
    `Multi
      (List.map (fun (serial, body) -> Protocol.Rec (serial, body)) recs
      @ [ Protocol.Hb { bound; epoch } ])
  | Subject.Rp_snapshot { path; serial; bound; epoch } -> (
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
    | Ok (Subject.Br_inserted id) -> `Reply (Protocol.Id id)
    | Ok (Subject.Br_deleted ok) -> `Reply (Protocol.Bool ok)
    | Error e -> `Reply (Protocol.Err (Printexc.to_string e)))
  | Protocol.Op op -> (
    Obs.incr c_queries;
    try
      match op with
      | Trace.Search p -> `Reply (Protocol.Hits (t.coll.search p))
      | Trace.Count p -> `Reply (Protocol.Int (t.coll.count p))
      | Trace.Extract { doc; off; len } -> (
        match t.coll.extract ~doc ~off ~len with
        | Some s -> `Reply (Protocol.Text s)
        | None -> `Reply Protocol.No_text)
      | Trace.Mem id -> `Reply (Protocol.Bool (t.coll.mem id))
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
          if t.cfg.timeout > 0. then
            List.iter
              (fun opt ->
                try Unix.setsockopt_float fd opt t.cfg.timeout with Unix.Unix_error _ -> ())
              [ Unix.SO_RCVTIMEO; Unix.SO_SNDTIMEO ];
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

let start ?(config = default_config) coll listen =
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
      coll;
      listen_fd;
      sock_path;
      tcp_port;
      stop_rd;
      stop_wr;
      stopping = Atomic.make false;
      discard = Atomic.make false;
      flush_wanted = Atomic.make false;
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

let start_engine ?config ~engine listen = start ?config engine listen
let engine_of_sharded sh = Dsdg_shard.Sharded_index.subject sh

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

(* The first of [stop]/[kill] to run claims the shutdown. *)
let claim t =
  Mutex.lock t.c_mu;
  let first = not t.shut in
  t.shut <- true;
  Mutex.unlock t.c_mu;
  first

let stop t =
  if claim t then begin
    teardown t;
    (* publish + checkpoint: the next open replays nothing *)
    t.coll.checkpoint ();
    t.coll.close ()
  end

let kill t ~torn =
  if claim t then begin
    (* unacknowledged writes die with the crash: the writer fails them
       without touching the WAL *)
    Atomic.set t.discard true;
    teardown t;
    t.coll.kill ~torn
  end
