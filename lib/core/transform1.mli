(** Transformation 1 (Section 2): static index -> fully-dynamic index
    with amortized update bounds.

    The collection is split into C0 (an uncompressed document buffer)
    and sub-collections C1..Cr held in semi-static deletion-only
    indexes whose maximum sizes follow a growth schedule picked by the
    config's variant: [Amortized] grows them geometrically (the paper's
    Transformation 1, max_j = 2(nf/log^2 nf) log^(j/2) nf, O(1)
    sub-collections); [Amortized_loglog] doubles them per level
    (Transformation 3 from Appendix A.4, O(log log n) sub-collections). *)

(** Read-only snapshot of the amortization counters. *)
type stats = {
  merges : int;
  purges : int;
  global_rebuilds : int;
  symbols_rebuilt : int;
}

module Make (I : Static_index.S) : sig
  include Dynamization.S

  (** Merge everything into one sub-collection now (an explicit global
      rebuild). *)
  val consolidate : t -> unit

  (** Amortization counters (merges, purges, global rebuilds). *)
  val stats : t -> stats

  (** ["geometric(eps=0.50)"] or ["doubling"]. *)
  val schedule_name : t -> string
end
