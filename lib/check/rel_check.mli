(** Differential checking for the dynamic relation: one stream of
    relation operations drives a {!Dsdg_binrel.Dyn_binrel} and is
    cross-checked answer-by-answer against the naive {!Model.Rel}, with
    failing streams delta-debugged to minimal replayable traces through
    the same stream driver ({!Runner.drive}) as the document fuzzer.
    Failures and reports are the runner's: print one with
    [Runner.report ~show:rop_to_string]. *)

(** One relation operation. The textual format is line-based, in the
    {!Trace} mold: ["> o a"] (add), ["< o a"] (remove), ["~ o a"]
    (related?), ["$ o"] (labels of object, list + count), ["^ a"]
    (objects of label, list + count), ["*"] (full pair-set snapshot
    comparison); blank lines and [%]-comments ignored. *)
type rop =
  | Radd of int * int
  | Rremove of int * int
  | Rrelated of int * int
  | Rsucc of int
  | Rpred of int
  | Rpairs

(** One line, no newline. *)
val rop_to_string : rop -> string

(** One-line parse with a field-level reason, mirroring
    {!Trace.parse_op}. *)
val parse_rop : string -> (rop, string) result

(** Raises [Invalid_argument] on garbage. *)
val rop_of_string : string -> rop

(** A deliberate harness defect for catch/shrink/replay self-tests
    (the relation-side analogue of [Index_config.fault]): [Lost_remove]
    silently drops removes of pairs with [(o + a) mod 3 = 0] from the
    structures under test while the model still applies them. The
    predicate depends only on the op payload, so shrunk traces keep
    failing. *)
type fault = Lost_remove

(** ["rel-lost-remove"]. *)
val fault_to_string : fault -> string

(** Inverse of {!fault_to_string}. *)
val fault_of_string : string -> fault option

(** Run a trace over a fresh relation; [Error] carries the first
    disagreement with the model (answers, live-pair census after every
    op, and pair-set snapshots). The relation and the model start from
    the pairs [init] (default none), the relation built in bulk
    ({!Dsdg_binrel.Dyn_binrel.of_pairs}). *)
val run_ops :
  ?fault:fault -> ?init:(int * int) list -> rop list -> (unit, rop Runner.failure) result

(** Deterministic bounded stream: a mostly-small id universe with
    occasional far-out ids, weighted toward updates with queries and
    snapshots interleaved. *)
val gen_ops : seed:int -> ops:int -> rop list

(** {!Runner.drive} over {!run_ops}: run, and on failure shrink. *)
val check : ?fault:fault -> rop list -> rop Runner.outcome

(** {!check} on the stream {!gen_ops} makes from [seed]. *)
val run_stream : ?fault:fault -> seed:int -> ops:int -> unit -> rop Runner.outcome

(** Save a relation trace under a ["% requires rel=str"] header, the
    marker {!Trace.load_hint} reads as [h_rel], so a replayer can tell a
    relation trace from a document trace. *)
val save : ?fault:fault -> string -> rop list -> unit

(** Load a relation trace; raises {!Trace.Parse_error} with the line
    number and offending field on garbage. *)
val load : string -> rop list
