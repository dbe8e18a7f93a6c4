(** Differential runner: fan one op stream across variant x backend
    pairs of {!Dsdg_core.Dynamic_index}, cross-check every answer
    against the naive {!Model} (and hence against each other), evaluate
    the {!Oracle} invariants after every operation, and delta-debug any
    failing stream down to a minimal replayable trace. *)

type target = {
  tg_name : string;  (** e.g. ["worst-case/fm"] -- CLI-compatible *)
  tg_variant : Dsdg_core.Dynamic_index.variant;
  tg_backend : Dsdg_core.Dynamic_index.backend;
}

(** All 9 variant x backend pairs. *)
val all_targets : target list

(** Subset selection by CLI-style names; ["all"] (or omission) keeps
    every choice. Raises [Invalid_argument] on unknown names. *)
val select_targets : ?variant:string -> ?backend:string -> unit -> target list

(** [target_index tg index] is [index] with [tg]'s variant and backend. *)
val target_index : target -> Dsdg_core.Index_config.t -> Dsdg_core.Index_config.t

type config = {
  index : Dsdg_core.Index_config.t;
      (** settings of every index under test; each target overrides
          [variant] and [backend]. [jobs >= 1] indexes are closed --
          domains joined -- before [run_trace] returns, pass or fail.
          With [readers >= 1] every query op runs on a reader domain
          against the latest published view, so the read plane itself
          is differentially checked -- a stale or incomplete epoch
          publication (e.g. the planted [`Stale_epoch] fault) becomes a
          model disagreement. *)
  check_invariants : bool;
}

(** The fuzz harnesses' defaults: {!Dsdg_core.Index_config.default}
    with [sample = 2] and [tau = 4], invariants checked. *)
val default_config : config

type failure = {
  f_step : int;  (** 1-based index of the failing op *)
  f_target : string;  (** [tg_name] of the disagreeing pair *)
  f_op : Trace.op;
  f_message : string;
  f_events : string list;  (** the target's recent structural events *)
}

(** Run a trace against every target; [Error] carries the first
    disagreement, invariant violation or exception. *)
val run_trace : ?config:config -> targets:target list -> Trace.op list -> (unit, failure) result

(** Delta-debugging shrink: chunk removal then per-op simplification,
    preserving "still fails" ([max_runs] bounds re-executions). The
    input must fail under [run_trace] with the same arguments. *)
val shrink : ?config:config -> ?max_runs:int -> targets:target list -> Trace.op list -> Trace.op list

(** The generic delta-debugger behind {!shrink}: same chunk-removal +
    payload-simplification passes against an arbitrary [fails]
    predicate ([true] = candidate still reproduces), so other
    differential harnesses (the shard matrix in
    [Dsdg_shard.Shard_check]) shrink identically. [max_runs] bounds
    [fails] invocations; a candidate offered after the budget is spent
    counts as passing. *)
val shrink_ops : fails:(Trace.op list -> bool) -> ?max_runs:int -> Trace.op list -> Trace.op list

type stream_outcome =
  | Pass
  | Fail of { failure : failure; trace : Trace.op list; shrunk : Trace.op list }

(** Generate (from [seed]), run, and on failure shrink against the
    disagreeing target only (fast) before re-running for the final
    report. *)
val run_stream :
  ?config:config ->
  ?profile:Opgen.profile ->
  ?shrink_budget:int ->
  targets:target list ->
  seed:int ->
  ops:int ->
  unit ->
  stream_outcome

(** Human-readable failure report: the minimal trace, the failing op,
    the disagreement, and the structure's recent event ring. *)
val report : ?seed:int -> failure:failure -> shrunk:Trace.op list -> unit -> string
