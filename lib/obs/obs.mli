(** Observability layer for the dynamization machinery.

    The paper's worst-case bounds rest on scheduling claims -- bounded
    dead fractions under Dietz-Sleator cleaning, rare forced job
    completions, bounded per-update background work -- that the
    structures must *report* before anyone can validate or tune them.
    This module is the shared instrumentation substrate:

    - monotonic {e counters} and max-tracking {e gauges};
    - {e latency histograms}, log-bucketed (bucket [b] holds values in
      [[2^(b-1), 2^b)]), updated without allocating on the hot path;
    - a structured {e event trace} (purge, merge, lock, job
      start/step/force/finish, install, top cleaning, restructure) in a
      fixed-size ring buffer;
    - {e space accounting} helpers ([set_gauge] per component) so
      measured bits can be compared with the paper's [nHk + o(n)]
      budget.

    Every recording entry point checks {!enabled} first and is a no-op
    when the flag is off, so instrumented code pays one load-and-branch
    per probe when disabled (< 5% of any indexing operation).

    All counters, gauges and histogram cells are [Atomic.t], so probes
    may fire concurrently from worker and reader domains without losing
    increments; registration, the event ring and [reset] serialize on a
    per-scope lock. [enabled] itself is a configuration flag -- set it
    before spawning domains. *)

val enabled : bool ref

(** [set_enabled b] toggles all recording at runtime. *)
val set_enabled : bool -> unit

(** Nanosecond clock used by {!start}/{!stop} and {!time}. Replaceable
    (e.g. with a bench harness's monotonic clock). *)
val set_clock : (unit -> int) -> unit

val now_ns : unit -> int

(** {1 Scopes}

    A scope is a named bag of counters, gauges, histograms and an event
    ring -- one per instrumented component. [scope name] is
    get-or-create in a global registry (use it for module-level,
    process-wide scopes such as ["semi_static"]); [private_scope] makes
    an unregistered scope owned by a single structure instance, so
    short-lived instances do not accumulate in the registry. *)

type scope
type counter
type gauge
type histogram

val scope : string -> scope
val private_scope : string -> scope
val scope_name : scope -> string

(** All scopes created with {!scope}, in creation order. *)
val registered : unit -> scope list

(** {1 Counters and gauges} *)

(** Get-or-create by name within the scope. *)
val counter : scope -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val gauge : scope -> string -> gauge
val set_gauge : gauge -> int -> unit

(** [set_max g v] raises [g] to [v] if [v] is larger. *)
val set_max : gauge -> int -> unit

val gauge_value : gauge -> int

(** {1 Histograms} *)

val histogram : scope -> string -> histogram

(** [observe h v] adds one sample; log-bucketed, no allocation. *)
val observe : histogram -> int -> unit

(** [start ()] reads the clock (0 when disabled); [stop h t0] records
    the elapsed nanoseconds. The pair avoids a closure allocation on hot
    paths; {!time} is the convenient closure form. *)
val start : unit -> int

val stop : histogram -> int -> unit
val time : histogram -> (unit -> 'a) -> 'a

type histogram_summary = {
  n : int;  (** samples *)
  sum : int;
  max : int;
  p50 : int;  (** bucket upper bounds *)
  p90 : int;
  p99 : int;
}

val summarize : histogram -> histogram_summary

(** {1 Event trace} *)

(** The structural-event taxonomy of the dynamization machinery
    (DESIGN.md "Observability"). [level]/[slot] identify sub-collection
    indexes; [work] is in construction ticks. *)
type event =
  | Purge of { level : int; dead : int; total : int }
      (** a sub-collection crossed its dead-fraction threshold *)
  | Merge of { from_level : int; into_level : int; sync : bool }
  | Lock of { level : int; target : string }
      (** C_j renamed L_j; background build started toward [target] *)
  | Job_start of { slot : int; target : string }
  | Job_step of { slot : int; work : int }
  | Job_force of { slot : int }
      (** a pending job was completed synchronously (the rare event the
          scheduling lemma bounds) *)
  | Job_finish of { slot : int; work : int }
  | Install of { slot : int; target : string; live : int }
  | Top_clean of { key : int; dead : int }  (** Dietz-Sleator cleaning *)
  | Restructure of { nf : int; structures : int }  (** nf re-snapshot *)
  | Epoch_publish of { epoch : int; cause : string }
      (** a new read-plane snapshot became the current epoch *)
  | Note of string

val record : scope -> event -> unit

(** Newest first, as [(sequence number, event)]. The ring keeps the most
    recent {!ring_capacity} events. *)
val recent : scope -> (int * event) list

val ring_capacity : int
val event_to_string : event -> string

(** {1 Reporting} *)

(** Counters then gauges, in registration order. *)
val counters : scope -> (string * int) list

val histograms : scope -> (string * histogram_summary) list

(** Counters, gauges and flattened histogram fields
    ([name.n] / [name.p50] / [name.p99] / [name.max]) -- the shape bench
    JSON rows embed. *)
val snapshot : scope -> (string * int) list

(** Zero every counter, gauge and histogram and clear the ring. *)
val reset : scope -> unit

(** Multi-line human-readable report of one scope, headed
    [[<title><scope name>]] ([title] defaults to [""]). *)
val render : ?max_events:int -> ?title:string -> scope -> string
