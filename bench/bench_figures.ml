(* Figures 1-3 are structural diagrams in the paper; we reproduce them as
   measured traces of the live data structures. *)

open Dsdg_core
open Dsdg_workload

module T1 = Transform1.Make (Fm_static)
module T2 = Transform2.Make (Fm_static)

(* Figure 1: geometric sub-collections C0..Cr under an insert stream. *)
let fig1 () =
  let st = Text_gen.rng 31 in
  let t = T1.create { Index_config.default with variant = Amortized } in
  Printf.printf "\n[fig1] Transformation 1 sub-collection sizes over an insertion stream\n";
  let rows = ref [] in
  for i = 1 to 4000 do
    ignore (T1.insert t (Text_gen.english_like st ~len:(20 + Random.State.int st 60)));
    if i mod 800 = 0 then begin
      let census = T1.census t in
      let cells =
        List.map (fun (name, size, _) -> Printf.sprintf "%s=%d" name size) census
      in
      rows := [ string_of_int i; String.concat "  " cells ] :: !rows
    end
  done;
  Bench_util.print_table ~title:"Figure 1: census after N insertions  [expect geometric size profile]"
    ~header:[ "inserts"; "sub-collections (live symbols)" ] (List.rev !rows);
  let s = T1.stats t in
  Printf.printf "merges=%d purges=%d global_rebuilds=%d symbols_rebuilt=%d (amortized %.1f rebuilt syms per inserted sym)\n"
    s.Transform1.merges s.Transform1.purges s.Transform1.global_rebuilds s.Transform1.symbols_rebuilt
    (float_of_int s.Transform1.symbols_rebuilt /. float_of_int (T1.total_symbols t));
  Bench_util.emit_json_row ~scope:(T1.obs t) ~bench:"fig1_insert_stream"
    [ ("inserts", Bench_util.I 4000) ]

(* Figure 2: Transformation 2's structure census under mixed churn. *)
let fig2 () =
  let st = Text_gen.rng 33 in
  let t = T2.create Index_config.default in
  Printf.printf "\n[fig2] Transformation 2 structures under mixed insert/delete churn\n";
  let live = ref [] and nlive = ref 0 in
  let rows = ref [] in
  for i = 1 to 5000 do
    if Random.State.float st 1.0 < 0.65 || !nlive = 0 then begin
      live := T2.insert t (Text_gen.english_like st ~len:(20 + Random.State.int st 60)) :: !live;
      incr nlive
    end
    else begin
      let k = Random.State.int st !nlive in
      let id = List.nth !live k in
      ignore (T2.delete t id);
      live := List.filter (fun x -> x <> id) !live;
      decr nlive
    end;
    if i mod 1000 = 0 then begin
      let census = T2.census t in
      let kind prefix = List.filter (fun (n, _, _) -> String.length n >= String.length prefix
                                                     && String.sub n 0 (String.length prefix) = prefix) census in
      let total sel = List.fold_left (fun a (_, l, _) -> a + l) 0 sel in
      let dead sel = List.fold_left (fun a (_, _, d) -> a + d) 0 sel in
      rows :=
        [ string_of_int i;
          Printf.sprintf "%d" (total (kind "C"));
          Printf.sprintf "%d" (total (kind "L"));
          Printf.sprintf "%d" (total (kind "Temp"));
          (let tops = List.filter (fun e -> not (List.memq e (kind "Temp"))) (kind "T") in
           Printf.sprintf "%d in %d tops" (total tops) (List.length tops));
          Printf.sprintf "%.1f%%" (100. *. float_of_int (dead census) /. float_of_int (max 1 (total census + dead census)));
          string_of_int (T2.pending_jobs t) ]
        :: !rows
    end
  done;
  Bench_util.print_table
    ~title:"Figure 2: live symbols per structure kind  [expect bulk in tops; C/L/Temp small; dead bounded]"
    ~header:[ "ops"; "C*"; "L*"; "Temp*"; "tops"; "dead frac"; "jobs" ]
    (List.rev !rows);
  let census = T2.census t in
  let total = List.fold_left (fun a (_, l, _) -> a + l) 0 census in
  let dead = List.fold_left (fun a (_, _, d) -> a + d) 0 census in
  Bench_util.emit_json_row ~scope:(T2.obs t) ~bench:"fig2_churn"
    [ ("ops", Bench_util.I 5000);
      ("live_syms", Bench_util.I total);
      ("dead_syms", Bench_util.I dead);
      ("dead_permille", Bench_util.I (if total + dead = 0 then 0 else dead * 1000 / (total + dead))) ]

(* Figure 3: the lock -> background build -> install protocol, as an
   event trace. *)
let fig3 () =
  let st = Text_gen.rng 35 in
  (* small work factor so a background build spans many updates *)
  let t = T2.create ~work_factor:8 Index_config.default in
  for _ = 1 to 600 do
    ignore (T2.insert t (Text_gen.english_like st ~len:(30 + Random.State.int st 50)))
  done;
  Printf.printf "\n[fig3] Transformation 2 event trace (newest first), showing Figure 3's protocol:\n";
  Printf.printf "       lock C_j -> L_j, Temp holds the new doc, N_{j+1} builds in background, install swaps\n\n";
  List.iteri (fun i ev -> if i < 18 then Printf.printf "   %s\n" ev) (T2.events t);
  let s = T2.stats t in
  Printf.printf
    "\njobs: %d started, %d completed in background, %d forced synchronously, max per-update job work = %d ticks\n"
    s.Transform2.jobs_started s.Transform2.jobs_completed s.Transform2.forced s.Transform2.max_job_step
