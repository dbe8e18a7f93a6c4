(* Table 3: O(n log sigma)-bit indexes (the fast/large class).

   The paper's Table 3 shows that plugging the Grossi-Vitter-class static
   index into Transformation 2 keeps its fast query time (trange sublinear
   factors, tlocate = O(log^eps n)) while supporting updates -- prior
   dynamic structures in this class paid O(|P| log n).

   Reproduced shape: the dynamized plain-SA backend (Table 3 class) locates
   occurrences much faster than the compressed backend, at a large space
   cost; its count time grows with |P| log n (binary search) vs the FM's
   |P| backward steps; both are dynamized by the same Transformation with
   identical update machinery. *)

open Dsdg_core
open Dsdg_workload

module T2_fm = Transform2.Make (Fm_static)
module T2_sa = Transform2.Make (Sa_static)

let run () =
  let st = Text_gen.rng 17 in
  let docs = Text_gen.corpus st ~count:300 ~avg_len:400 ~kind:(`Markov (8, 0.6)) in
  let n = Array.fold_left (fun a d -> a + String.length d + 1) 0 docs in
  Printf.printf "\n[table3] corpus: %d docs, %d symbols\n" (Array.length docs) n;
  let t_fm = T2_fm.create Index_config.default in
  let t_sa = T2_sa.create Index_config.default in
  Array.iter (fun d -> ignore (T2_fm.insert t_fm d)) docs;
  Array.iter (fun d -> ignore (T2_sa.insert t_sa d)) docs;
  let pats plen =
    List.init 30 (fun _ ->
        match Text_gen.planted_pattern st docs ~len:plen with
        | Some p -> p
        | None -> Text_gen.miss_pattern ~len:plen)
  in
  let bench_count name count plen =
    let ps = pats plen in
    let ns = Bench_util.per_op ~iters:10 (fun () -> List.iter (fun p -> ignore (count p)) ps) in
    (name, ns /. float_of_int (List.length ps))
  in
  let report_per_occ search count =
    let ps = pats 4 in
    let occ = List.fold_left (fun a p -> a + count p) 0 ps in
    let ns = Bench_util.per_op ~iters:5 (fun () -> List.iter (fun p -> ignore (search p)) ps) in
    if occ = 0 then nan else ns /. float_of_int occ
  in
  let fm_report p =
    let c = ref 0 in
    Epoch_view.search (T2_fm.view t_fm) p ~f:(fun ~doc:_ ~off:_ -> incr c);
    !c
  in
  let sa_report p =
    let c = ref 0 in
    Epoch_view.search (T2_sa.view t_sa) p ~f:(fun ~doc:_ ~off:_ -> incr c);
    !c
  in
  let rows =
    List.map
      (fun plen ->
        let _, fm_ns = bench_count "fm" (fun p -> Epoch_view.count (T2_fm.view t_fm) p) plen in
        let _, sa_ns = bench_count "sa" (fun p -> Epoch_view.count (T2_sa.view t_sa) p) plen in
        [ string_of_int plen; Bench_util.ns_str fm_ns; Bench_util.ns_str sa_ns ])
      [ 4; 16; 64 ]
  in
  Bench_util.print_table
    ~title:"Table 3a: dynamized count query vs |P| (both under Transformation 2)"
    ~header:[ "|P|"; "compressed backend (fm)"; "plain-SA backend (Table 3 class)" ]
    rows;
  let rows2 =
    [
      [ "compressed backend (fm)";
        Bench_util.ns_str (report_per_occ fm_report (fun p -> Epoch_view.count (T2_fm.view t_fm) p));
        Bench_util.bits_per_sym (T2_fm.space_bits t_fm) n ];
      [ "plain-SA backend (Table 3 class)";
        Bench_util.ns_str (report_per_occ sa_report (fun p -> Epoch_view.count (T2_sa.view t_sa) p));
        Bench_util.bits_per_sym (T2_sa.space_bits t_sa) n ];
    ]
  in
  Bench_util.print_table
    ~title:"Table 3b: locate per occurrence & space  [expect SA much faster locate, much bigger]"
    ~header:[ "index"; "report/occ"; "bits/sym" ] rows2
