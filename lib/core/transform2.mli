(** Transformation 2 (Section 3): static index -> fully-dynamic index
    with worst-case update bounds.

    On top of Transformation 1's layout: locked copies L_j that keep
    answering queries during merges, background construction of the new
    sub-collections (cooperative Incremental jobs when [jobs = 0],
    domain-pool workers when [jobs >= 1]), single-document Temp indexes
    so new text is queryable immediately, and top collections cleaned by
    the Dietz-Sleator schedule. A top built below the grain nf/tau
    absorbs the smallest other tops, so at most 2 tau + 2 tops are
    resident. The config's [fault] plants one of the
    scheduling defects of {!Index_config.fault}.

    Queries read the published {!Epoch_view.t}, which lists every
    structure (C0/L0, C_j, L_j, Temp_j, T_k); pooled workers just run
    their queued jobs, and updates land them at the install points. *)

(** Read-only snapshot of the scheduling counters. *)
type stats = {
  jobs_started : int;
  jobs_completed : int;
  forced : int;
  restructures : int;
  top_cleanings : int;
  sync_merges : int;
  max_job_step : int; (* largest single-update job work, for the worst-case claim *)
  crash_fallbacks : int; (* pooled jobs that failed and were rebuilt synchronously *)
}

module Make (I : Static_index.S) : sig
  include Dynamization.S

  (** {!Dynamization.S.create} with the job budget: every update steps
      each pending cooperative job by [work_factor] (default 64) work
      units per symbol it inserts or deletes. *)
  val create : ?work_factor:int -> Index_config.t -> t

  (** Scheduling counters (jobs, forced completions, cleanings). *)
  val stats : t -> stats

  (** Space per structure, for the nHk + o(n) accounting. *)
  val space_census : t -> (string * int) list

  (** Background construction jobs currently in flight. *)
  val pending_jobs : t -> int
end
