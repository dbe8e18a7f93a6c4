(* Domain-pool job executor; semantics documented in executor.mli.

   Synchronization discipline: the pool has one mutex/condvar pair for
   the submission queue, and every handle has its own mutex/condvar pair
   for its state machine

       Queued -> Running -> Done | Failed | Cancelled
       Queued -> Cancelled

   State transitions happen only under the handle's mutex, so the value
   built by a worker is published to the owner with a proper
   happens-before edge (no torn reads of a half-built structure).  The
   cancel flag is an Atomic read from the job's [tick] so a running job
   notices cancellation without taking a lock per work unit. *)

open Dsdg_obs

exception Cancelled

type 'a state =
  | Queued
  | Running
  | Done of 'a
  | Failed of exn
  | Cancelled_

type 'a handle = {
  h_name : string;
  h_mu : Mutex.t;
  h_cv : Condition.t;
  mutable h_state : 'a state;
  h_cancel : bool Atomic.t;
  (* the thunk is kept here (not only in the queue) so [await] can steal
     a still-queued job and run it on the caller *)
  h_fn : (unit -> unit) -> 'a;
  mutable h_ticks : int; (* work units the job consumed, worker-local until terminal *)
  mutable h_done_ns : int; (* clock at the terminal transition *)
  mutable h_observed : bool; (* handoff latency recorded once *)
}

(* The queue erases the result type; the worker only ever needs to run
   the job and flip its state. *)
type packed = Job : 'a handle -> packed

type t = {
  t_workers : int;
  t_queue_cap : int;
  q : packed Queue.t;
  mu : Mutex.t;
  nonempty : Condition.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  c_submitted : Obs.counter;
  c_completed : Obs.counter;
  c_crashed : Obs.counter;
  c_cancelled : Obs.counter;
  c_inline : Obs.counter;
  g_depth : Obs.gauge;
  h_wall : Obs.histogram;
  h_handoff : Obs.histogram;
}

let workers t = t.t_workers
let mode t = if t.t_workers = 0 then `Sync else `Pool t.t_workers

let pending t =
  Mutex.lock t.mu;
  let n = Queue.length t.q in
  Mutex.unlock t.mu;
  n

(* Run [h] to a terminal state on the current domain (worker, or the
   submitter/awaiter for inline and stolen jobs).  The caller must have
   already transitioned the handle to Running under its mutex. *)
let execute pool (h : 'a handle) =
  let t0 = Obs.now_ns () in
  let tick () =
    h.h_ticks <- h.h_ticks + 1;
    if Atomic.get h.h_cancel then raise Cancelled
  in
  let outcome = try Done (h.h_fn tick) with Cancelled -> Cancelled_ | exn -> Failed exn in
  Mutex.lock h.h_mu;
  h.h_state <- outcome;
  h.h_done_ns <- Obs.now_ns ();
  Condition.broadcast h.h_cv;
  Mutex.unlock h.h_mu;
  Obs.observe pool.h_wall (h.h_done_ns - t0);
  match outcome with
  | Done _ -> Obs.incr pool.c_completed
  | Failed _ -> Obs.incr pool.c_crashed
  | Cancelled_ -> Obs.incr pool.c_cancelled
  | Queued | Running -> assert false

(* Claim a queued job (Queued -> Running).  False if it was already
   claimed (stolen by [await]) or cancelled while waiting. *)
let claim (h : 'a handle) =
  Mutex.lock h.h_mu;
  let mine = h.h_state = Queued in
  if mine then h.h_state <- Running;
  Mutex.unlock h.h_mu;
  mine

let worker_loop pool () =
  let continue = ref true in
  while !continue do
    Mutex.lock pool.mu;
    while Queue.is_empty pool.q && not pool.stopping do
      Condition.wait pool.nonempty pool.mu
    done;
    if Queue.is_empty pool.q then begin
      (* stopping and fully drained *)
      Mutex.unlock pool.mu;
      continue := false
    end
    else begin
      let (Job h) = Queue.pop pool.q in
      Obs.set_gauge pool.g_depth (Queue.length pool.q);
      Mutex.unlock pool.mu;
      if claim h then execute pool h
    end
  done

let create ?queue_cap ?obs ~workers () =
  if workers < 0 then invalid_arg "Executor.create: workers < 0";
  let obs = match obs with Some s -> s | None -> Obs.private_scope "exec" in
  let queue_cap =
    match queue_cap with
    | Some c -> if c < 1 then invalid_arg "Executor.create: queue_cap < 1" else c
    | None -> (2 * workers) + 2
  in
  let pool =
    {
      t_workers = workers;
      t_queue_cap = queue_cap;
      q = Queue.create ();
      mu = Mutex.create ();
      nonempty = Condition.create ();
      stopping = false;
      domains = [];
      c_submitted = Obs.counter obs "exec_submitted";
      c_completed = Obs.counter obs "exec_completed";
      c_crashed = Obs.counter obs "exec_crashed";
      c_cancelled = Obs.counter obs "exec_cancelled";
      c_inline = Obs.counter obs "exec_inline";
      g_depth = Obs.gauge obs "exec_queue_depth";
      h_wall = Obs.histogram obs "exec_wall_ns";
      h_handoff = Obs.histogram obs "exec_handoff_ns";
    }
  in
  pool.domains <- List.init workers (fun _ -> Domain.spawn (worker_loop pool));
  pool

let make_handle ~name f =
  {
    h_name = name;
    h_mu = Mutex.create ();
    h_cv = Condition.create ();
    h_state = Queued;
    h_cancel = Atomic.make false;
    h_fn = f;
    h_ticks = 0;
    h_done_ns = 0;
    h_observed = false;
  }

let submit pool ~name f =
  let h = make_handle ~name f in
  Obs.incr pool.c_submitted;
  let enqueued =
    pool.t_workers > 0
    && begin
         Mutex.lock pool.mu;
         let ok = (not pool.stopping) && Queue.length pool.q < pool.t_queue_cap in
         if ok then begin
           Queue.push (Job h) pool.q;
           Obs.set_gauge pool.g_depth (Queue.length pool.q);
           Condition.signal pool.nonempty
         end;
         Mutex.unlock pool.mu;
         ok
       end
  in
  if not enqueued then begin
    (* Sync pool, queue full, or stopping: bounded submission means the
       caller pays for the job now instead of queueing without limit. *)
    if pool.t_workers > 0 then Obs.incr pool.c_inline;
    if claim h then execute pool h
  end;
  h

(* Record the completion -> first-observation delay exactly once. *)
let observe_handoff pool (h : 'a handle) =
  if not h.h_observed then begin
    h.h_observed <- true;
    Obs.observe pool.h_handoff (Obs.now_ns () - h.h_done_ns)
  end

let poll pool (h : 'a handle) =
  Mutex.lock h.h_mu;
  let s = h.h_state in
  Mutex.unlock h.h_mu;
  match s with
  | Queued | Running -> `Pending
  | Done v ->
    observe_handoff pool h;
    `Done v
  | Failed e ->
    observe_handoff pool h;
    `Failed e
  | Cancelled_ ->
    observe_handoff pool h;
    `Cancelled

let await pool (h : 'a handle) =
  (* steal a still-queued job: the owner completes it synchronously (the
     paper's forced completion) rather than waiting for a busy worker *)
  if claim h then execute pool h
  else begin
    Mutex.lock h.h_mu;
    while (match h.h_state with Queued | Running -> true | _ -> false) do
      Condition.wait h.h_cv h.h_mu
    done;
    Mutex.unlock h.h_mu
  end;
  match poll pool h with
  | `Pending -> assert false
  | (`Done _ | `Failed _ | `Cancelled) as terminal -> terminal

let work_spent (h : 'a handle) =
  Mutex.lock h.h_mu;
  let n = h.h_ticks in
  Mutex.unlock h.h_mu;
  n

let cancel pool (h : 'a handle) =
  Mutex.lock h.h_mu;
  (match h.h_state with
  | Queued ->
    h.h_state <- Cancelled_;
    h.h_done_ns <- Obs.now_ns ();
    Obs.incr pool.c_cancelled;
    Condition.broadcast h.h_cv
  | Running -> Atomic.set h.h_cancel true
  | Done _ | Failed _ | Cancelled_ -> ());
  Mutex.unlock h.h_mu

let run pool ~name f =
  match await pool (submit pool ~name f) with
  | `Done v -> v
  | `Failed e -> raise e
  | `Cancelled -> raise Cancelled

let shutdown pool =
  Mutex.lock pool.mu;
  pool.stopping <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mu;
  List.iter Domain.join pool.domains;
  pool.domains <- []
