(** The differential runner: the one place that applies ops to
    {!Subject}s and compares them with the naive {!Model}.

    {!run_trace} fans one op stream over a list of subject factories
    (variant x backend pairs of {!Dsdg_core.Dynamic_index}, sharded
    collections, ...), checks every answer and the post-op census and
    {!Subject.check} after every op; {!drive} delta-debugs a failing
    stream down to a minimal replayable trace against the subject that
    disagreed. The durable side shares the same pieces: {!verify}
    checks a recovered subject against the model and {!sweep} crashes
    a store at every kill point of a stream. *)

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

(** The fuzz harnesses' index settings: {!Dsdg_core.Index_config.default}
    with [sample = 2] and [tau = 4]. *)
val fuzz_index : Dsdg_core.Index_config.t

(** One fresh {!Subject.of_index} per target, named [tg_name], built
    with [index] (default {!fuzz_index}) and the target's variant and
    backend. With [readers >= 1] every query runs on a reader domain
    against the latest published view. *)
val subjects : ?index:Dsdg_core.Index_config.t -> target list -> (unit -> Subject.t) list

type 'op failure = {
  f_step : int;  (** 1-based index of the failing op *)
  f_target : string;  (** name of the disagreeing subject *)
  f_subject : int;  (** its position in the list that was run *)
  f_op : 'op;
  f_message : string;
  f_events : string list;  (** the subject's recent structural events *)
}

(** [apply model s op] moves [model] by [op], applies [op] to [s] and
    compares the answer (empty-pattern rejection included), then
    [doc_count], [total_symbols] and [s.check]. [Error] carries the
    disagreement or the exception [s] raised. *)
val apply : Model.t -> Subject.t -> Trace.op -> (unit, string) result

(** Run a trace over fresh instances of every factory, closing them
    all before returning; [Error] carries the first disagreement. *)
val run_trace : (unit -> Subject.t) list -> Trace.op list -> (unit, Trace.op failure) result

(** Halve a document op's payload ([None] when it cannot shrink). *)
val simplify : Trace.op -> Trace.op option

(** The delta-debugger: chunk removal from n/2 down to single ops,
    then per-op [simplify] until nothing changes, preserving [fails]
    ([true] = the candidate still reproduces). [max_runs] (default 500)
    bounds [fails] invocations; a candidate offered after the budget
    is spent counts as passing. *)
val shrink_ops :
  fails:('op list -> bool) -> simplify:('op -> 'op option) -> ?max_runs:int -> 'op list -> 'op list

type 'op outcome =
  | Pass
  | Fail of { failure : 'op failure; trace : 'op list; shrunk : 'op list }

(** [drive ~run ~simplify subjects trace] runs [trace]; on failure it
    shrinks the prefix up to the failing op against the disagreeing
    subject alone ([f_subject]; default [max_runs]) and re-runs the
    minimal trace for the final report. The subjects and op type are
    the caller's: the document runner and the relation harness both
    drive through it. *)
val drive :
  run:('s list -> 'op list -> (unit, 'op failure) result) ->
  simplify:('op -> 'op option) ->
  's list ->
  'op list ->
  'op outcome

(** {!drive} over {!run_trace}: [check subjects trace]. *)
val check : (unit -> Subject.t) list -> Trace.op list -> Trace.op outcome

(** {!check} on the stream {!Opgen.generate} makes from [seed]. *)
val run_stream :
  ?profile:Opgen.profile ->
  seed:int ->
  ops:int ->
  (unit -> Subject.t) list ->
  Trace.op outcome

(** Human-readable failure report: the failing op, the disagreement,
    the minimal trace (one [show]n op per numbered line) and the
    subject's recent event ring. *)
val report :
  ?seed:int -> show:('op -> string) -> failure:'op failure -> shrunk:'op list -> unit -> string

(** {1 Recovered state} *)

(** [verify ~label s model]: every discrepancy between [s] and [model]
    (at most 5, each prefixed by [label]; empty = agrees). Checks the
    census; [s.check]; membership and a 3-symbol extract of every id
    up to two past the last assigned one (so a dead or phantom id must
    stay dead); the full text of every live document; and [search] and
    [count] for ["ab"], ["a"] and a prefix of the first 8 live
    documents with at least 2 symbols and of every 7th live document. *)
val verify : label:string -> Subject.t -> Model.t -> string list

(** A store that can crash: [open_] a fresh one in [dir] (wiped
    first), [kill] it without any shutdown work, and [reopen] it from
    what the crash left on disk (or, for a cluster, promote what
    survived). *)
type 'h crash = {
  dir : string;
  open_ : unit -> 'h * Subject.t;
  kill : 'h -> unit;
  reopen : 'h -> Subject.t;
}

type kill_failure = {
  kf_point : int;  (** kill point: ops applied before the crash *)
  kf_detail : string;
}

type kill_outcome = {
  kc_points : int;  (** kill points exercised *)
  kc_failures : kill_failure list;  (** empty = every recovery checked out *)
}

(** One-line summary, failures included. *)
val kill_summary : kill_outcome -> string

(** [sweep crash ops] runs kill points [0, stride, 2*stride, ...] and
    always [length ops] ([stride] default 1). At each point: open, apply
    the prefix through {!apply}, kill, reopen, {!verify}, apply the
    remaining ops, {!verify} again, close. A recovery that is correct
    at rest but restores broken schedule state still fails in the
    continuation. [crash.dir] is removed when the sweep ends. *)
val sweep : ?stride:int -> 'h crash -> Trace.op list -> kill_outcome

(** Remove a directory tree (no-op if absent). *)
val reset_dir : string -> unit
