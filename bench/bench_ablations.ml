(* Ablations over the design parameters DESIGN.md calls out, plus the
   Lemma 2/3 micro-benchmark. *)

open Dsdg_core
open Dsdg_bits
open Dsdg_delbits
open Dsdg_workload

module T1 = Transform1.Make (Fm_static)
module T2 = Transform2.Make (Fm_static)

(* A1: lazy-deletion threshold tau: space overhead vs purge work. *)
let ablation_tau () =
  let mk_stream seed =
    let st = Text_gen.rng seed in
    List.init 1500 (fun _ -> Text_gen.english_like st ~len:(30 + Random.State.int st 60))
  in
  Printf.printf "\n[ablation tau] higher tau = less dead space tolerated = more rebuild work\n";
  let rows =
    List.map
      (fun tau ->
        let t = T1.create { Index_config.default with variant = Amortized; tau } in
        let docs = mk_stream 91 in
        let ids = List.map (T1.insert t) docs in
        (* delete 40% *)
        List.iteri (fun i id -> if i mod 5 < 2 then ignore (T1.delete t id)) ids;
        let s = T1.stats t in
        let q = Bench_util.per_op ~iters:30 (fun () -> Epoch_view.count (T1.view t) "data") in
        [ string_of_int tau; string_of_int s.Transform1.purges;
          string_of_int s.Transform1.symbols_rebuilt;
          Bench_util.bits_per_sym (T1.space_bits t) (T1.total_symbols t);
          Bench_util.ns_str q ])
      [ 2; 4; 8; 16; 32 ]
  in
  Bench_util.print_table
    ~title:"Ablation A1: tau sweep (40% of documents deleted)"
    ~header:[ "tau"; "purges"; "symbols rebuilt"; "bits/sym"; "count query" ]
    rows

(* A2: suffix-array sample rate: the classic space/locate-time curve,
   at the level of the full dynamic index. *)
let ablation_s () =
  let st = Text_gen.rng 93 in
  let docs = Text_gen.corpus st ~count:200 ~avg_len:400 ~kind:(`Markov (8, 0.6)) in
  let pat = Option.get (Text_gen.planted_pattern st docs ~len:3) in
  Printf.printf "\n[ablation s] sample-rate trade-off through the dynamic index\n";
  let rows =
    List.map
      (fun sample ->
        let t = T2.create { Index_config.default with sample } in
        Array.iter (fun d -> ignore (T2.insert t d)) docs;
        let occ = Epoch_view.count (T2.view t) pat in
        let report_ns =
          Bench_util.per_op ~iters:10 (fun () ->
              let c = ref 0 in
              Epoch_view.search (T2.view t) pat ~f:(fun ~doc:_ ~off:_ -> incr c);
              !c)
        in
        [ string_of_int sample;
          Bench_util.ns_str (if occ = 0 then nan else report_ns /. float_of_int occ);
          Bench_util.bits_per_sym (T2.space_bits t) (T2.total_symbols t) ])
      [ 1; 4; 16; 64 ]
  in
  Bench_util.print_table ~title:"Ablation A2: locate cost rises with s while space falls"
    ~header:[ "s"; "report/occ"; "bits/sym" ] rows

(* A3: Transformation 1 vs Transformation 3 (doubling schedule,
   O(log log n) sub-collections): cheaper merges, more structures to
   query. *)
let ablation_t3 () =
  Printf.printf "\n[ablation t3] geometric (T1) vs doubling (T3 / Appendix A.4) schedules\n";
  let rows =
    List.map
      (fun (name, variant) ->
        let st = Text_gen.rng 95 in
        let t = T1.create { Index_config.default with variant } in
        let _, ins_ns =
          Bench_util.time_ns (fun () ->
              for _ = 1 to 3000 do
                ignore (T1.insert t (Text_gen.english_like st ~len:(20 + Random.State.int st 60)))
              done)
        in
        let s = T1.stats t in
        let q = Bench_util.per_op ~iters:30 (fun () -> Epoch_view.count (T1.view t) "index") in
        Bench_util.emit_json_row ~bench:"ablation_t3"
          [ ("schedule", Bench_util.S name);
            ("insert_ns_per_sym", Bench_util.F (ins_ns /. float_of_int (T1.total_symbols t)));
            ("merges", Bench_util.I s.Transform1.merges);
            ("collections", Bench_util.I (List.length (T1.census t)));
            ("symbols_rebuilt", Bench_util.I s.Transform1.symbols_rebuilt);
            ("count_ns", Bench_util.F q) ];
        [ name; Bench_util.ns_str (ins_ns /. float_of_int (T1.total_symbols t));
          string_of_int s.Transform1.merges; string_of_int (List.length (T1.census t));
          string_of_int s.Transform1.symbols_rebuilt; Bench_util.ns_str q ])
      [ ("geometric (Transformation 1)", Index_config.Amortized);
        ("doubling (Transformation 3)", Amortized_loglog) ]
  in
  Bench_util.print_table
    ~title:"Ablation A3: schedule comparison  [expect T3 fewer rebuilt symbols, more sub-collections]"
    ~header:[ "schedule"; "insert/sym"; "merges"; "#collections"; "symbols rebuilt"; "count query" ]
    rows

(* A4: Transformation 2's background work budget (the O(log^eps n u(n))
   per-symbol constant).  Too small a budget forces synchronous
   completions (latency spikes); enough budget makes the worst-case
   guarantee real.  The paper's scheduling lemma corresponds to the
   regime where forced completions vanish. *)
let ablation_work_factor () =
  Printf.printf "\n[ablation work_factor] background budget vs forced synchronous completions\n";
  let rows =
    List.map
      (fun wf ->
        let st = Text_gen.rng 97 in
        let t = T2.create ~work_factor:wf Index_config.default in
        let live = ref [] and nlive = ref 0 in
        for _ = 1 to 2500 do
          if Random.State.float st 1.0 < 0.7 || !nlive = 0 then begin
            live := T2.insert t (Text_gen.english_like st ~len:(20 + Random.State.int st 80)) :: !live;
            incr nlive
          end
          else begin
            let k = Random.State.int st !nlive in
            let id = List.nth !live k in
            ignore (T2.delete t id);
            live := List.filter (fun x -> x <> id) !live;
            decr nlive
          end
        done;
        let s = T2.stats t in
        Bench_util.emit_json_row ~scope:(T2.obs t) ~bench:"ablation_work_factor"
          [ ("work_factor", Bench_util.I wf) ];
        let jobs = max 1 s.Transform2.jobs_started in
        [ string_of_int wf; string_of_int s.Transform2.jobs_started;
          string_of_int s.Transform2.forced;
          Printf.sprintf "%.0f%%" (100. *. float_of_int s.Transform2.forced /. float_of_int jobs);
          string_of_int s.Transform2.max_job_step ])
      [ 1; 4; 16; 64; 256 ]
  in
  Bench_util.print_table
    ~title:"Ablation A4: work_factor sweep  [expect forced%% -> 0 as the budget grows]"
    ~header:[ "work_factor"; "jobs"; "forced"; "forced %"; "max ticks/update" ]
    rows

(* Lemma 2/3: reporting 1-bits in a range in O(k) vs scanning. *)
let lemma23 () =
  let n = 1_000_000 in
  Printf.printf "\n[lemma23] Reporter over %d bits\n" n;
  let rows =
    List.map
      (fun survivors ->
        let r = Reporter.create_full n in
        let bv = Bitvec.create_full n in
        let st = Random.State.make [| survivors |] in
        (* knock out all but ~survivors bits *)
        let keep = Hashtbl.create survivors in
        for _ = 1 to survivors do
          Hashtbl.replace keep (Random.State.int st n) ()
        done;
        for i = 0 to n - 1 do
          if not (Hashtbl.mem keep i) then begin
            Reporter.zero r i;
            Bitvec.clear bv i
          end
        done;
        let k = ref 0 in
        let rep_ns =
          Bench_util.per_op ~iters:20 (fun () ->
              k := 0;
              Reporter.report r 0 n (fun _ -> incr k))
        in
        let scan_ns =
          Bench_util.per_op ~iters:5 (fun () ->
              k := 0;
              for i = 0 to n - 1 do
                if Bitvec.unsafe_get bv i then incr k
              done)
        in
        [ string_of_int !k; Bench_util.ns_str rep_ns;
          Bench_util.ns_str (rep_ns /. float_of_int (max 1 !k)); Bench_util.ns_str scan_ns ])
      [ 100; 1000; 10000 ]
  in
  Bench_util.print_table
    ~title:"Lemma 2/3: report(0,n) cost is O(k), independent of n; naive scan is O(n)"
    ~header:[ "k survivors"; "report all"; "per survivor"; "naive scan" ]
    rows;
  (* zero() cost *)
  let r = Reporter.create_full n in
  let i = ref 0 in
  let zero_ns = Bench_util.per_op ~iters:100000 (fun () -> Reporter.zero r !i; i := (!i + 7919) mod n) in
  Printf.printf "zero(): %s per call\n" (Bench_util.ns_str zero_ns)

(* A5: cost of the observability layer itself.  The same churn workload
   with Obs recording on vs off; the acceptance bar is < 5% overhead
   when disabled (every probe then is one load-and-branch). *)
let ablation_obs_overhead () =
  Printf.printf "\n[ablation obs] observability layer overhead on a churn workload\n";
  let churn () =
    let st = Text_gen.rng 131 in
    let t = T2.create Index_config.default in
    let live = ref [] and nlive = ref 0 in
    for _ = 1 to 1500 do
      if Random.State.float st 1.0 < 0.7 || !nlive = 0 then begin
        live := T2.insert t (Text_gen.english_like st ~len:(20 + Random.State.int st 80)) :: !live;
        incr nlive
      end
      else begin
        let id = List.hd !live in
        ignore (T2.delete t id);
        live := List.tl !live;
        decr nlive
      end
    done
  in
  let open Dsdg_obs in
  let was = !Obs.enabled in
  (* warm up allocators and caches once before timing either mode *)
  churn ();
  Obs.set_enabled true;
  let _, on_ns = Bench_util.time_ns churn in
  let _, on_ns2 = Bench_util.time_ns churn in
  let on_ns = min on_ns on_ns2 in
  Obs.set_enabled false;
  let _, off_ns = Bench_util.time_ns churn in
  let _, off_ns2 = Bench_util.time_ns churn in
  let off_ns = min off_ns off_ns2 in
  Obs.set_enabled was;
  let overhead = 100. *. (on_ns -. off_ns) /. off_ns in
  Bench_util.print_table ~title:"Ablation A5: Obs enabled vs disabled  [expect < 5% when disabled]"
    ~header:[ "mode"; "churn time"; "overhead" ]
    [
      [ "disabled"; Bench_util.ns_str off_ns; "baseline" ];
      [ "enabled"; Bench_util.ns_str on_ns; Printf.sprintf "%+.1f%%" overhead ];
    ];
  Bench_util.emit_json_row ~bench:"ablation_obs_overhead"
    [ ("enabled_ns", Bench_util.F on_ns); ("disabled_ns", Bench_util.F off_ns);
      ("overhead_pct", Bench_util.F overhead) ]
