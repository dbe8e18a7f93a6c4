(** Incremental background jobs via OCaml 5 effects.

    Transformation 2 rebuilds sub-collections "in the background", paying
    a bounded amount of construction work per update. A job wraps a
    builder function that receives a [tick] callback (one call = one work
    unit); whenever the current budget is exhausted the job suspends via
    an effect, and [step] resumes it later. *)

type 'a t

(** [create f] wraps builder [f] (not started yet). [f] receives the
    tick function it must call once per unit of work. *)
val create : ((unit -> unit) -> 'a) -> 'a t

(** Total work units consumed so far. *)
val work_spent : 'a t -> int

(** [step t ~budget] runs the job for at most [budget] work units.
    [`Done v] if it finished (now or earlier), [`More] otherwise. *)
val step : 'a t -> budget:int -> [ `Done of 'a | `More ]

(** Run to completion regardless of budget. *)
val force : 'a t -> 'a
