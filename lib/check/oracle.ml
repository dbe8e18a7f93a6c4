(* Invariant oracles over Dynamic_index.probe; the invariant list and
   its paper references live in oracle.mli and DESIGN.md section 6. *)

open Dsdg_core

type t = { mutable last_jobs : int * int * int (* started, completed, forced *) }

let create () = { last_jobs = (0, 0, 0) }

(* Census entry classification, following the Figure 2 naming the
   transformations emit: C0/L0 uncompressed buffers, C_j/L_j semi-static
   sub-collections, Temp_j single-document staging, T_k tops. *)
type entry =
  | Buffer (* C0 or L0 *)
  | Sub of int
  | Locked of int
  | Temp
  | Top

let classify name =
  let level s = int_of_string (String.sub s 1 (String.length s - 1)) in
  if name = "C0" || name = "L0" then Buffer
  else if String.length name >= 4 && String.sub name 0 4 = "Temp" then Temp
  else if name.[0] = 'C' then Sub (level name)
  else if name.[0] = 'L' then Locked (level name)
  else Top

let check o idx =
  let p = Dynamic_index.probe idx in
  let bad = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
  (* capacity schedule is monotone in the level *)
  for j = 0 to 8 do
    if p.pr_capacity j > p.pr_capacity (j + 1) then
      fail "capacity not monotone: max_%d = %d > max_%d = %d" j (p.pr_capacity j) (j + 1)
        (p.pr_capacity (j + 1))
  done;
  let amortized = p.pr_jobs = None in
  List.iter
    (fun (name, live, dead) ->
      match classify name with
      | Buffer ->
        (* 2n/log^2 n buffer bound; buffer deletions are eager *)
        if live > p.pr_capacity 0 then
          fail "%s overflows the 2n/log^2 n buffer bound: %d live > capacity %d" name live
            (p.pr_capacity 0);
        if dead <> 0 then fail "%s holds %d dead symbols: buffer deletions must be eager" name dead
      | Sub j | Locked j ->
        if live > p.pr_capacity j then
          fail "%s overflows its schedule capacity: %d live > max_%d = %d" name live j
            (p.pr_capacity j);
        (* Transformation 1 purges eagerly: dead * tau <= live + dead at
           rest. Transformation 2's purge is job-gated, so only the
           amortized variants get the strict check. *)
        if amortized && dead * p.pr_tau > live + dead + p.pr_tau then
          fail "%s missed its purge threshold: %d dead * tau=%d > %d total" name dead p.pr_tau
            (live + dead)
      | Temp -> ()
      | Top ->
        (* dead counts in individual tops are governed by the cleaning
           schedule checked below (a clean per delta deletions), not by
           a per-top fraction: a top legitimately carries all its dead
           while its rebuild is in flight *)
        ())
    p.pr_census;
  (* Dietz-Sleator cleaning schedule (Lemma 1): one top rebuild is
     dispatched per delta = nf/(2 tau lg tau) deleted symbols, and a
     rebuild still in flight after a second full period is forced -- so
     the deleted-symbols counter may never reach twice the period. *)
  (match p.pr_clean with
  | None -> ()
  | Some (counter, period) ->
    if counter > 2 * period then
      fail
        "Dietz-Sleator cleaning fell behind: %d symbols deleted since the last top-cleaning dispatch > 2 * delta = %d"
        counter (2 * period);
    (* top-count bound (DESIGN.md section 2, "Bounded top collections"):
       a top built below the grain absorbs the small tops, so at most
       2 tau + 2 top collections are resident *)
    let tops = List.length (List.filter (fun (name, _, _) -> classify name = Top) p.pr_census) in
    if tops > (2 * p.pr_tau) + 2 then
      fail "too many top collections: %d tops > 2 tau + 2 = %d" tops ((2 * p.pr_tau) + 2));
  (* census live total must equal the collection's own account *)
  let census_live = List.fold_left (fun a (_, l, _) -> a + l) 0 p.pr_census in
  let total = Dynamic_index.total_symbols idx in
  if census_live <> total then
    fail "census live sum %d <> total_symbols %d" census_live total;
  if total > 0 && Dynamic_index.space_bits idx <= 0 then
    fail "non-empty collection reports %d space bits" (Dynamic_index.space_bits idx);
  (* Transformation 2 job accounting: conservation and monotonicity *)
  (match p.pr_jobs with
  | None -> ()
  | Some (started, completed, forced) ->
    let ls, lc, lf = o.last_jobs in
    if started < ls || completed < lc || forced < lf then
      fail "job counters regressed: started %d->%d completed %d->%d forced %d->%d" ls started lc
        completed lf forced;
    if not (forced <= completed && completed <= started) then
      fail "job accounting broken: forced %d <= completed %d <= started %d expected" forced
        completed started;
    if p.pr_pending_jobs <> started - completed then
      fail "pending jobs %d <> started %d - completed %d" p.pr_pending_jobs started completed;
    o.last_jobs <- (started, completed, forced));
  List.rev !bad
