(** Domain-pool job executor for background rebuilds.

    Transformation 2 promises worst-case update bounds because the
    expensive [N_{j+1}] constructions happen "in the background". The
    cooperative realization ([Dsdg_incr.Incremental]) still pays that
    work inside the caller's [insert]/[delete]; this executor moves it
    onto OCaml 5 worker [Domain]s so the construction runs concurrently
    with queries and updates, while the owner keeps landing results only
    at the paper's install points.

    Contract highlights:

    - [workers = 0] is the deterministic [Sync] degenerate pool: every
      submitted job runs inline inside [submit], so results, ordering
      and counters are bit-for-bit reproducible (the mode tier-1 tests
      and the fuzz oracle run in by default);
    - a worker runs each job it claims to the end; the owner never
      parks or paces the workers, it only lands finished results;
    - the submission queue is bounded: when it is full, the job runs
      inline on the caller (counted in [exec_inline]) instead of
      growing the queue without bound;
    - {!await} {e steals} a job that is still queued and runs it on the
      caller -- exactly the synchronous forced completion the paper's
      scheduling lemma accounts for -- and only blocks when a worker has
      already picked the job up;
    - cancellation is cooperative: a worker observes {!cancel} at the
      job's next [tick] and unwinds with {!Cancelled}: finalizers run,
      and the job can never produce a result afterwards;
    - a worker that raises marks the job [`Failed] with the original
      exception; the owner decides how to recover (Transformation 2
      falls back to a synchronous in-place rebuild).

    Observability (recorded into the scope given at {!create}):
    [exec_submitted] / [exec_completed] / [exec_crashed] /
    [exec_cancelled] / [exec_inline] counters, an [exec_queue_depth]
    gauge, and [exec_wall_ns] (job start to finish on the worker) and
    [exec_handoff_ns] (job finish to first observation by the owner)
    histograms. *)

type t
(** A pool of worker domains plus a bounded submission queue. *)

type 'a handle
(** One submitted job; the only way to reach its result. *)

exception Cancelled
(** Raised inside a job when its handle has been cancelled (out of the
    job's [tick]), and by {!run} when awaiting a cancelled job. *)

val create : ?queue_cap:int -> ?obs:Dsdg_obs.Obs.scope -> workers:int -> unit -> t
(** [create ~workers ()] spawns [workers] domains ([0] = synchronous
    degenerate pool, no domains). [queue_cap] bounds the submission
    queue (default [2 * workers + 2]; jobs past the bound run inline on
    the submitter). [obs] is the scope executor metrics are recorded
    into (default: a private scope named ["exec"]). *)

val workers : t -> int

(** [`Sync] iff the pool was created with [workers = 0]. *)
val mode : t -> [ `Sync | `Pool of int ]

val submit : t -> name:string -> ((unit -> unit) -> 'a) -> 'a handle
(** [submit t ~name f] enqueues [f] for a worker domain. [f] receives a
    [tick] callback it must call regularly (one call per unit of
    construction work); [tick] is the cancellation point. With 0
    workers, or when the queue is full, or after {!shutdown}, [f] runs
    inline before [submit] returns.

    Thread-safety is the submitter's contract: everything [f] touches
    must either be immutable, owned by the job, or tolerate concurrent
    mutation whose effect is re-applied at the install point (the
    deleted-during-rebuild replay of Transformation 2). *)

val poll : t -> 'a handle -> [ `Pending | `Done of 'a | `Failed of exn | `Cancelled ]
(** Non-blocking check; [`Pending] while queued or running. *)

val await : t -> 'a handle -> [ `Done of 'a | `Failed of exn | `Cancelled ]
(** Block until the job reaches a terminal state. A job still in the
    queue is stolen and run on the caller (a synchronous forced
    completion); a running job is waited on. *)

val cancel : t -> 'a handle -> unit
(** Queued: the job is discarded and will never run. Running: the
    worker raises {!Cancelled} out of the job's next [tick]. Terminal:
    no effect. *)

val run : t -> name:string -> ((unit -> unit) -> 'a) -> 'a
(** [submit] then [await]: offload one job and wait for it. Re-raises
    the job's exception on [`Failed]; raises {!Cancelled} on
    [`Cancelled]. *)

val work_spent : 'a handle -> int
(** [tick] calls the job has made so far; exact once the job is
    terminal, a racy lower bound while it is running. *)

val pending : t -> int
(** Jobs sitting in the submission queue (not yet claimed by a worker,
    stolen, or cancelled). *)

val shutdown : t -> unit
(** Drain the queue, stop and join every worker domain. Idempotent.
    Jobs submitted afterwards run inline. *)
