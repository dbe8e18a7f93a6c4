(** The settings of one dynamic index, as one value.

    The paper fixes four construction parameters per index: the
    dynamization schedule, the static backend, the suffix-array
    sampling rate s and the lazy-deletion threshold tau. The engine adds
    four runtime settings. Every layer that builds an index
    (the two transformations, [Dynamic_index], the store, the shards,
    the replicas and their checkers) takes one [t] instead of eight
    optional arguments.

    {b What persists.} A snapshot records the {e shape} fields
    ([variant], [backend], [sample], [tau]); restoring one keeps them
    and takes only the {e runtime} fields ([fault], [jobs], [readers],
    [retain_epochs]) from the caller's config. *)

(** Dynamization strategy. *)
type variant =
  | Amortized  (** Transformation 1: geometric schedule, amortized updates. *)
  | Amortized_loglog
      (** Transformation 3 (Appendix A.4): doubling schedule, cheaper
          amortized insertions, O(log log n) sub-collections. *)
  | Worst_case
      (** Transformation 2: locked copies + background incremental
          rebuilds; worst-case update bounds. *)

(** Static index plugged into the transformation. *)
type backend =
  | Fm  (** FM-index: compressed (nHk-style) space. *)
  | Plain_sa  (** Plain suffix array: Table 3's fast/large class. *)
  | Csa  (** Sadakane-style psi-based CSA: Table 1's row [39]. *)

(** Deliberate scheduling defects of Transformation 2, injectable so the
    differential checkers can prove they catch real bugs.
    [`Skip_top_clean] disables the Dietz-Sleator top cleaning, so
    deleted symbols pile up in the top collections and Lemma 1's
    dead-fraction bound eventually breaks. [`Worker_crash] (pooled mode,
    [jobs >= 1]) makes every worker job raise on its first tick and
    breaks the crash recovery: the job is discarded instead of rebuilt,
    so the documents of its locked source (and any Temp riding on it)
    are lost. [`Stale_epoch] makes successful deletes skip the epoch
    publication: the write plane stays correct while published views,
    which every query reads, keep serving deleted documents. *)
type fault = [ `Skip_top_clean | `Worker_crash | `Stale_epoch ]

type t = {
  variant : variant;  (** persisted *)
  backend : backend;  (** persisted *)
  sample : int;  (** suffix-array sampling rate s (locate cost vs space); persisted *)
  tau : int;  (** dead fraction 1/tau tolerated before a purge; persisted *)
  fault : fault option;  (** a planted defect; affects [Worst_case] indexes only *)
  jobs : int;
      (** background-rebuild worker domains; [0] steps rebuilds
          cooperatively inside updates (deterministic); affects
          [Worst_case] indexes only *)
  readers : int;  (** reader-pool domains serving queries from published views *)
  retain_epochs : int;  (** recently published views kept resolvable for as-of reads *)
}

(** [Worst_case] over [Fm], s = 8, tau = 8, no fault, no worker or
    reader domains, no retained epochs. *)
val default : t

(** [validate t] is [t] when [tau >= 1], [sample >= 1], [jobs],
    [readers], [retain_epochs >= 0] and [jobs + readers] worker domains
    fit beside the main one under {!max_domains}; otherwise it raises
    [Invalid_argument] naming the first bad field or the limit. Every
    index constructor calls it. *)
val validate : t -> t

(** [128]: the domains the OCaml 5 runtime runs at once, the main one
    included (fixed in 5.1; the default of [OCAMLRUNPARAM]'s [d] in
    5.2). *)
val max_domains : int

(** {!validate} for a collection of [indexes] indexes with [t]'s
    settings, each with [checkpoint_jobs] checkpoint workers (a durable
    store), opened by [recovery_jobs] recovery workers: all of those
    domains must fit under {!max_domains}. Checked before any domain
    starts, so an over-budget setting fails whole instead of half way
    through spawning a pool. *)
val validate_collection : indexes:int -> checkpoint_jobs:int -> recovery_jobs:int -> t -> t

(** {1 Names} *)

(** [("amortized", Amortized); ("loglog", Amortized_loglog);
    ("worst-case", Worst_case)] -- the command-line spellings. *)
val variants : (string * variant) list

(** [("fm", Fm); ("sa", Plain_sa); ("csa", Csa)]. *)
val backends : (string * backend) list

(** ["skip-top-clean"], ["worker-crash"], ["stale-epoch"]. *)
val faults : (string * fault) list

(** {1 Trace-hint header}

    A failing fuzz trace records the settings it ran under as
    [key=value] fields of its [% requires ...] header (see
    [Dsdg_check.Trace.hint]). Keys: [sample tau fault jobs readers],
    each also the name of its command-line flag; values use the
    command-line spellings. An absent key means "no requirement"; an
    unknown key (such as the retired [seq]) is ignored. The other fields
    are not hinted: a replay line names the variant and backend
    explicitly, and no fuzz harness reads a retained epoch. *)

(** The hinted fields of [t] that differ from [base], in key order. *)
val to_hint : base:t -> t -> (string * string) list

(** [base] with every recognized field applied; unknown keys are
    ignored. [Error "key=value"] names the first recognized key whose
    value does not parse. [of_hint ~base (to_hint ~base t) = Ok t]. *)
val of_hint : base:t -> (string * string) list -> (t, string) result

(** [(key, wanted, got)] for every recognized field whose value [t]
    does not have; [key] is also the command-line option without
    dashes. [Error] as for {!of_hint}. *)
val mismatches :
  (string * string) list -> t -> ((string * string * string) list, string) result

(** The command-line options that set the fields [to_hint ~base t]
    lists, e.g. [" --tau 3 --fault skip-top-clean"]. *)
val to_flags : base:t -> t -> string
