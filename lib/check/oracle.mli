(** Paper-invariant oracles, evaluated after every operation.

    Each oracle checks a structural guarantee the paper's analysis
    rests on, via {!Dsdg_core.Dynamic_index.probe}:

    - {b buffer bound} (Section 2): C0 (and a locked L0) holds at most
      the schedule's level-0 capacity, 2n/log^2 n symbols, and no dead
      symbols (buffer deletions are eager);
    - {b capacity schedule} (Transformation 1 / 3): every C_j and L_j
      holds at most max_j live symbols, and max_j is monotone in j
      (geometric / doubling growth);
    - {b cleaning schedule} (Lemma 1, Dietz-Sleator cleaning): one top
      rebuild is dispatched per delta = nf/(2 tau lg tau) deleted
      symbols, so the deleted-symbols counter never reaches twice the
      period (a per-top dead bound would be wrong: a top legitimately
      carries all its dead while its rebuild job is in flight);
    - {b top-count bound} (Transformation 2; an engineering addition,
      DESIGN.md section 2, "Bounded top collections"): at most
      2 tau + 2 top collections. Live symbols stay within 2 nf, so at
      most 2 tau tops can hold the grain nf/tau. A top built below the
      grain (a cleaning, a new top from C_r, a restore fold) also takes
      the smallest idle tops, up to 2 grain live symbols, so tops below
      the grain are absorbed as fast as churn makes them. Without the
      merge, stationary churn leaves dozens of near-empty tops;
    - {b job accounting} (Transformation 2 scheduling): pending jobs =
      started - completed, forced <= completed <= started, and all
      three counters are monotone over time;
    - {b size accounting}: the census's live symbols sum exactly to
      [total_symbols], and a non-empty collection reports positive
      measured space.

    An oracle instance is stateful (it remembers the last job counters
    to check monotonicity), so create one per structure under test. *)

type t

val create : unit -> t

(** All violations after the latest operation; empty means healthy. *)
val check : t -> Dsdg_core.Dynamic_index.t -> string list
