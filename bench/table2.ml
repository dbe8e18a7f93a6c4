(* Table 2: dynamic indexing.

   The paper's Table 2 compares dynamic compressed indexes.  Prior work
   pays O(log n / log log n) dynamic-rank time *per pattern symbol and
   per occurrence*; the paper's transformations answer queries at
   static-index speed and pay polylog only on updates.

   Reproduced shape, on the same corpus and query set:
   - query (count & report) time: Transform1/Transform2 must beat the
     dynamic-BWT baseline clearly and sit close to the static FM-index;
   - update time: the baseline's insert is cheap-ish per symbol but its
     queries are slow; ours pay the rebuild schedule on insert. *)

open Dsdg_core
open Dsdg_fm
open Dsdg_dynseq
open Dsdg_workload

module T1 = Transform1.Make (Fm_static)
module T2 = Transform2.Make (Fm_static)

type subject = {
  name : string;
  insert : string -> int;
  delete : int -> bool;
  count : string -> int;
  report : string -> int;
  space : unit -> int;
}

let subjects () =
  let t1 = T1.create { Index_config.default with variant = Amortized } in
  let t2 = T2.create Index_config.default in
  let base = Dyn_fm.create () in
  let base_next = ref 0 in
  [
    {
      name = "transform1/fm (ours, amortized)";
      insert = T1.insert t1;
      delete = T1.delete t1;
      count = (fun p -> Epoch_view.count (T1.view t1) p);
      report =
        (fun p ->
          let c = ref 0 in
          Epoch_view.search (T1.view t1) p ~f:(fun ~doc:_ ~off:_ -> incr c);
          !c);
      space = (fun () -> T1.space_bits t1);
    };
    {
      name = "transform2/fm (ours, worst-case)";
      insert = T2.insert t2;
      delete = T2.delete t2;
      count = (fun p -> Epoch_view.count (T2.view t2) p);
      report =
        (fun p ->
          let c = ref 0 in
          Epoch_view.search (T2.view t2) p ~f:(fun ~doc:_ ~off:_ -> incr c);
          !c);
      space = (fun () -> T2.space_bits t2);
    };
    {
      name = "dynamic BWT baseline [30]/[35]";
      insert =
        (fun text ->
          let id = !base_next in
          incr base_next;
          Dyn_fm.insert base ~doc:id text;
          id);
      delete = (fun id -> Dyn_fm.delete base id);
      count = Dyn_fm.count base;
      report = (fun p -> List.length (Dyn_fm.search base p));
      space = (fun () -> Dyn_fm.space_bits base);
    };
  ]

let run () =
  let st = Text_gen.rng 7 in
  let docs = Text_gen.corpus st ~count:1200 ~avg_len:400 ~kind:(`Markov (8, 0.6)) in
  let n = Array.fold_left (fun a d -> a + String.length d + 1) 0 docs in
  Printf.printf "\n[table2] corpus: %d docs, %d symbols\n" (Array.length docs) n;
  let patterns =
    List.init 30 (fun i ->
        match Text_gen.planted_pattern st docs ~len:(5 + (i mod 4)) with
        | Some p -> p
        | None -> Text_gen.miss_pattern ~len:5)
  in
  let rows =
    List.map
      (fun s ->
        (* build by insertion, measuring update cost *)
        let ids = ref [] in
        let _, ins_ns =
          Bench_util.time_ns (fun () -> Array.iter (fun d -> ids := s.insert d :: !ids) docs)
        in
        let ins_per_sym = ins_ns /. float_of_int n in
        (* queries *)
        let count_ns =
          Bench_util.per_op ~iters:10 (fun () -> List.iter (fun p -> ignore (s.count p)) patterns)
          /. float_of_int (List.length patterns)
        in
        let occ_total = List.fold_left (fun a p -> a + s.count p) 0 patterns in
        let report_ns =
          Bench_util.per_op ~iters:2 (fun () -> List.iter (fun p -> ignore (s.report p)) patterns)
        in
        let report_per_occ = if occ_total = 0 then nan else report_ns /. float_of_int occ_total in
        (* deletions of a third of the documents *)
        let victims = List.filteri (fun i _ -> i mod 3 = 0) !ids in
        let vict_syms =
          List.length victims * (n / Array.length docs)
        in
        let _, del_ns = Bench_util.time_ns (fun () -> List.iter (fun id -> ignore (s.delete id)) victims) in
        [ s.name; Bench_util.ns_str ins_per_sym; Bench_util.ns_str count_ns;
          Bench_util.ns_str report_per_occ;
          Bench_util.ns_str (del_ns /. float_of_int (max 1 vict_syms));
          Bench_util.bits_per_sym (s.space ()) n ])
      (subjects ())
  in
  Bench_util.print_table
    ~title:"Table 2: dynamic indexing  [expect: ours far faster report; baseline O(log n) queries]"
    ~header:[ "index"; "insert/sym"; "count query"; "report/occ"; "delete/sym"; "bits/sym" ]
    rows;
  (* static reference point: query times of the underlying static index *)
  let fm = Fm_index.build ~sample:8 docs in
  let count_ns =
    Bench_util.per_op ~iters:20 (fun () -> List.iter (fun p -> ignore (Fm_index.count fm p)) patterns)
    /. float_of_int (List.length patterns)
  in
  Printf.printf "reference: static FM count query = %s (dynamic ours should be within ~small factor)\n"
    (Bench_util.ns_str count_ns);

  (* scaling: count-query time vs n -- the baseline pays O(log n) per
     pattern symbol; ours stays at static speed (a fixed number of
     sub-collection probes). *)
  let scale_rows =
    List.map
      (fun count ->
        let st = Text_gen.rng (1000 + count) in
        let docs = Text_gen.corpus st ~count ~avg_len:400 ~kind:(`Markov (8, 0.6)) in
        let n = Array.fold_left (fun a d -> a + String.length d + 1) 0 docs in
        let pats =
          List.init 20 (fun _ ->
              match Text_gen.planted_pattern st docs ~len:6 with
              | Some p -> p
              | None -> Text_gen.miss_pattern ~len:6)
        in
        let t1 = T1.create { Index_config.default with variant = Amortized } in
        Array.iter (fun d -> ignore (T1.insert t1 d)) docs;
        T1.consolidate t1;
        let base = Dyn_fm.create () in
        Array.iteri (fun i d -> Dyn_fm.insert base ~doc:i d) docs;
        let ours_ns =
          Bench_util.per_op ~iters:10 (fun () ->
              List.iter (fun p -> ignore (Epoch_view.count (T1.view t1) p)) pats)
          /. 20.
        in
        let base_ns =
          Bench_util.per_op ~iters:10 (fun () -> List.iter (fun p -> ignore (Dyn_fm.count base p)) pats)
          /. 20.
        in
        [ string_of_int n; Bench_util.ns_str ours_ns; Bench_util.ns_str base_ns;
          Printf.sprintf "%.1fx" (base_ns /. ours_ns) ])
      [ 100; 400; 1600; 6400 ]
  in
  Bench_util.print_table
    ~title:"Table 2 (scaling): count query vs n, ours consolidated  [ratio grows with n]"
    ~header:[ "n (symbols)"; "ours (transform1)"; "baseline dyn-BWT"; "ratio" ]
    scale_rows
