(* Tests for dsdg_delbits (Reporter, Fenwick) and dsdg_incr (Incremental). *)

open Dsdg_delbits
open Dsdg_incr

let check = Alcotest.(check int)

(* --- Reporter --- *)

let test_reporter_basic () =
  let r = Reporter.create_full 200 in
  check "ones" 200 (Reporter.ones r);
  Reporter.zero r 5;
  Reporter.zero r 100;
  Reporter.zero r 199;
  check "ones after" 197 (Reporter.ones r);
  Alcotest.(check bool) "get 5" false (Reporter.get r 5);
  Alcotest.(check bool) "get 6" true (Reporter.get r 6);
  (* idempotent zero *)
  Reporter.zero r 5;
  check "idempotent" 197 (Reporter.ones r)

let test_reporter_report_range () =
  let r = Reporter.create_full 100 in
  for i = 0 to 99 do
    if i mod 3 <> 0 then Reporter.zero r i
  done;
  (* surviving: multiples of 3 *)
  let got = ref [] in
  Reporter.report r 10 50 (fun i -> got := i :: !got);
  let expected = List.filter (fun i -> i >= 10 && i < 50) (List.init 34 (fun k -> 3 * k)) in
  Alcotest.(check (list int)) "range" expected (List.rev !got)

let test_reporter_next_one () =
  let r = Reporter.create_full 500 in
  for i = 0 to 499 do
    if i <> 0 && i <> 250 && i <> 499 then Reporter.zero r i
  done;
  check "from 0" 0 (Reporter.next_one r 0);
  check "from 1" 250 (Reporter.next_one r 1);
  check "from 251" 499 (Reporter.next_one r 251);
  check "past end" (-1) (Reporter.next_one r 500);
  Reporter.zero r 499;
  check "after zero" (-1) (Reporter.next_one r 251)

let test_reporter_empty_words () =
  (* zero out whole aligned word regions; summaries must skip them fast *)
  let r = Reporter.create_full 10000 in
  for i = 0 to 9999 do
    if i <> 9999 then Reporter.zero r i
  done;
  check "survivor" 9999 (Reporter.next_one r 0);
  check "ones" 1 (Reporter.ones r)

let test_reporter_of_bitvec () =
  let open Dsdg_bits in
  let bv = Bitvec.of_bools [ true; false; true; true; false; false; true ] in
  let r = Reporter.of_bitvec bv in
  Alcotest.(check (list int)) "init" [ 0; 2; 3; 6 ] (Reporter.to_list r);
  Reporter.zero r 3;
  Alcotest.(check (list int)) "after zero" [ 0; 2; 6 ] (Reporter.to_list r)

(* Word-boundary lengths: the 62-bit last word is partial (len mod 62 <> 0),
   exactly full (len = 62), or absent (len = 0).  create_full and of_bitvec
   must agree and never count bits above [len]. *)
let test_reporter_partial_word_lengths () =
  let open Dsdg_bits in
  List.iter
    (fun len ->
      let r = Reporter.create_full len in
      check (Printf.sprintf "create_full %d ones" len) len (Reporter.ones r);
      check (Printf.sprintf "create_full %d count_range" len) len (Reporter.count_range r 0 len);
      check (Printf.sprintf "create_full %d next_one" len)
        (if len = 0 then -1 else 0)
        (Reporter.next_one r 0);
      let bv = Bitvec.create len in
      Bitvec.fill_ones bv;
      let r' = Reporter.of_bitvec bv in
      check (Printf.sprintf "of_bitvec %d ones" len) len (Reporter.ones r');
      check (Printf.sprintf "of_bitvec %d count_range" len) len (Reporter.count_range r' 0 len);
      if len > 0 then begin
        (* zero the last valid bit; the structures above it must agree *)
        Reporter.zero r' (len - 1);
        check (Printf.sprintf "of_bitvec %d after zero" len) (len - 1) (Reporter.ones r');
        check (Printf.sprintf "of_bitvec %d count after zero" len) (len - 1)
          (Reporter.count_range r' 0 len)
      end)
    [ 0; 1; 61; 62; 63; 123; 124; 200 ]

let prop_reporter_count_range =
  QCheck.Test.make ~name:"reporter count_range matches naive" ~count:200
    QCheck.(triple (int_range 1 500) (list (int_bound 499)) (pair (int_bound 520) (int_bound 520)))
    (fun (n, zeros, (a, b)) ->
      let r = Reporter.create_full n in
      let alive = Array.make n true in
      List.iter
        (fun i ->
          if i < n then begin
            Reporter.zero r i;
            alive.(i) <- false
          end)
        zeros;
      let s = min a b and e = max a b in
      let naive = ref 0 in
      for i = max 0 s to min n (e + 1) - 1 do
        if i < e && alive.(i) then incr naive
      done;
      Reporter.count_range r s e = !naive)

let prop_reporter_vs_naive =
  QCheck.Test.make ~name:"reporter report/next_one match naive set" ~count:200
    QCheck.(pair (int_range 1 400) (list (int_bound 399)))
    (fun (n, zeros) ->
      let r = Reporter.create_full n in
      let alive = Array.make n true in
      List.iter
        (fun i ->
          if i < n then begin
            Reporter.zero r i;
            alive.(i) <- false
          end)
        zeros;
      let naive = List.filter (fun i -> alive.(i)) (List.init n (fun i -> i)) in
      let ok = ref (Reporter.to_list r = naive) in
      (* next_one from a few positions *)
      for p = 0 to min (n - 1) 50 do
        let naive_next =
          let rec go i = if i >= n then -1 else if alive.(i) then i else go (i + 1) in
          go p
        in
        if Reporter.next_one r p <> naive_next then ok := false
      done;
      !ok)

(* report against a naive bit scan over random [s, e) after random
   zeroing: single bits, whole 62-bit words, and whole summary words
   (62 x 62 positions), so report's jumps through the summary pyramid
   (levels 1 and 2 at these lengths) are exercised. *)
let prop_reporter_report_ranges =
  QCheck.Test.make ~name:"reporter report = naive scan after word and summary zeroing" ~count:150
    QCheck.(pair (int_bound 12_000) small_nat)
    (fun (n, seed) ->
      let st = Random.State.make [| n; seed |] in
      let r = Reporter.create_full n and alive = Array.make n true in
      let kill lo hi =
        for i = max 0 lo to min n hi - 1 do
          Reporter.zero r i;
          alive.(i) <- false
        done
      in
      let w = Dsdg_bits.Popcount.word_bits in
      if n > 0 then begin
        for _ = 1 to Random.State.int st (n + 1) do
          let i = Random.State.int st n in
          kill i (i + 1)
        done;
        for _ = 1 to Random.State.int st 6 do
          let j = Random.State.int st ((n / w) + 1) in
          kill (j * w) ((j + 1 + Random.State.int st 3) * w)
        done;
        for _ = 1 to Random.State.int st 3 do
          let j = Random.State.int st ((n / (w * w)) + 1) in
          kill (j * w * w) ((j + 1) * w * w)
        done
      end;
      let ok = ref (Reporter.ones r = Array.fold_left (fun a b -> if b then a + 1 else a) 0 alive) in
      for _ = 1 to 8 do
        let a = Random.State.int st (n + 3) - 1 and b = Random.State.int st (n + 3) - 1 in
        let s = min a b and e = max a b in
        let got = ref [] in
        Reporter.report r s e (fun i -> got := i :: !got);
        let want = ref [] in
        for i = max 0 s to min n e - 1 do
          if alive.(i) then want := i :: !want
        done;
        if !got <> !want then ok := false
      done;
      !ok)

(* Allocation-free scans: 1,000 calls of select1_in, select0_in and
   report (whose callback allocates nothing) add no minor-heap words. *)
let test_scans_allocate_nothing () =
  let open Dsdg_bits in
  let st = Random.State.make [| 42 |] in
  let len = 20_000 in
  let bv = Bitvec.of_bools (List.init len (fun _ -> Random.State.bool st)) in
  let words = Bitvec.words bv and ones = Bitvec.count bv in
  let super = Rank_select.directory words in
  let r = Reporter.of_bitvec bv in
  for i = 0 to len - 1 do
    if i mod 7 = 0 || (i / 1000) mod 3 = 0 then Reporter.zero r i
  done;
  let sink = ref 0 in
  let f i = sink := !sink + i in
  let words_of g =
    let before = Gc.minor_words () in
    for k = 0 to 999 do
      g k
    done;
    int_of_float (Gc.minor_words () -. before)
  in
  let select1 = words_of (fun k -> sink := !sink + Rank_select.select1_in words super (k * ones / 1000)) in
  let select0 =
    words_of (fun k -> sink := !sink + Rank_select.select0_in words super ~len (k * (len - ones) / 1000))
  in
  let report = words_of (fun k -> Reporter.report r (k * 10) (len - (k * 10)) f) in
  check "select1_in words" 0 select1;
  check "select0_in words" 0 select0;
  check "report words" 0 report;
  Alcotest.(check bool) "scanned" true (!sink <> 0)

(* --- Fenwick --- *)

let test_fenwick_basic () =
  let f = Fenwick.create 10 in
  Fenwick.add f 0 5;
  Fenwick.add f 3 2;
  Fenwick.add f 9 1;
  check "prefix 0" 0 (Fenwick.prefix f 0);
  check "prefix 1" 5 (Fenwick.prefix f 1);
  check "prefix 4" 7 (Fenwick.prefix f 4);
  check "total" 8 (Fenwick.total f);
  check "range 1 10" 3 (Fenwick.range f 1 10);
  Fenwick.add f 3 (-2);
  check "after negative" 6 (Fenwick.total f)

let test_fenwick_ones () =
  let f = Fenwick.create_ones 100 in
  check "total" 100 (Fenwick.total f);
  check "prefix 37" 37 (Fenwick.prefix f 37);
  Fenwick.add f 10 (-1);
  check "range" 49 (Fenwick.range f 10 60)

let prop_fenwick =
  QCheck.Test.make ~name:"fenwick prefix sums match naive" ~count:200
    QCheck.(pair (int_range 1 100) (list (pair (int_bound 99) (int_range (-5) 5))))
    (fun (n, updates) ->
      let f = Fenwick.create n in
      let arr = Array.make n 0 in
      List.iter
        (fun (i, d) ->
          if i < n then begin
            Fenwick.add f i d;
            arr.(i) <- arr.(i) + d
          end)
        updates;
      let ok = ref true in
      let acc = ref 0 in
      for i = 0 to n do
        if Fenwick.prefix f i <> !acc then ok := false;
        if i < n then acc := !acc + arr.(i)
      done;
      !ok)

(* --- Fenwick.search + corrected space accounting --- *)

let test_fenwick_search () =
  let f = Fenwick.create 8 in
  List.iteri (fun i v -> Fenwick.add f i v) [ 3; 0; 2; 5; 0; 0; 1; 4 ];
  (* prefix sums: 0,3,3,5,10,10,10,11,15 *)
  List.iter
    (fun (k, want) -> check (Printf.sprintf "search %d" k) want (Fenwick.search f k))
    [ (0, 0); (2, 0); (3, 2); (4, 2); (5, 3); (9, 3); (10, 6); (11, 7); (14, 7) ];
  Alcotest.check_raises "search past total" (Invalid_argument "Fenwick.search")
    (fun () -> ignore (Fenwick.search f 15));
  Alcotest.check_raises "search negative" (Invalid_argument "Fenwick.search")
    (fun () -> ignore (Fenwick.search f (-1)))

let test_fenwick_space_bits () =
  let w = Dsdg_bits.Popcount.word_bits in
  (* n+1 tree slots, one word each, derived from word_bits -- the old
     figure multiplied by 63 and counted a phantom extra word *)
  check "space 10" (11 * w) (Fenwick.space_bits (Fenwick.create 10));
  check "space 1" (2 * w) (Fenwick.space_bits (Fenwick.create 1))

let test_reporter_space_bits () =
  let w = Dsdg_bits.Popcount.word_bits in
  let r = Reporter.create_full 1000 in
  let bits = Reporter.space_bits r in
  Alcotest.(check bool) "multiple of word_bits" true (bits mod w = 0);
  Alcotest.(check bool) "covers payload" true (bits >= 1000)

(* --- Incremental --- *)

let test_incremental_steps () =
  (* a job that needs exactly 100 ticks *)
  let job =
    Incremental.create (fun tick ->
        let acc = ref 0 in
        for i = 1 to 100 do
          tick ();
          acc := !acc + i
        done;
        !acc)
  in
  (* 30 + 30 + 30 budgets: not yet done *)
  let r1 = Incremental.step job ~budget:30 in
  Alcotest.(check bool) "not finished after 30" true (r1 = `More);
  let r2 = Incremental.step job ~budget:30 in
  Alcotest.(check bool) "more 2" true (r2 = `More);
  let r3 = Incremental.step job ~budget:30 in
  Alcotest.(check bool) "more 3" true (r3 = `More);
  (match Incremental.step job ~budget:30 with
  | `Done v -> check "sum" 5050 v
  | `More -> Alcotest.fail "should be done");
  check "spent" 100 (Incremental.work_spent job);
  (* stepping a finished job returns its value *)
  (match Incremental.step job ~budget:1 with
  | `Done v -> check "again" 5050 v
  | `More -> Alcotest.fail "finished job said More")

let test_incremental_force () =
  let job = Incremental.create (fun tick -> for _ = 1 to 1000 do tick () done; "done") in
  ignore (Incremental.step job ~budget:10);
  Alcotest.(check string) "force" "done" (Incremental.force job)

let test_incremental_zero_work () =
  let job = Incremental.create (fun _tick -> 42) in
  (match Incremental.step job ~budget:1 with
  | `Done v -> check "imm" 42 v
  | `More -> Alcotest.fail "no ticks should finish immediately")

let test_incremental_sais () =
  (* a real builder run incrementally must give the same result *)
  let open Dsdg_sa in
  let s = Array.init 500 (fun i -> (i * 7) mod 5) in
  let job = Incremental.create (fun tick -> Sais.suffix_array ~tick s) in
  let steps = ref 0 in
  let rec drive () =
    match Incremental.step job ~budget:97 with
    | `Done sa -> sa
    | `More ->
      incr steps;
      drive ()
  in
  let sa = drive () in
  Alcotest.(check bool) "many steps" true (!steps > 10);
  Alcotest.(check (array int)) "same result" (Sais.naive s) sa

let prop_incremental_budget_respected =
  QCheck.Test.make ~name:"incremental: per-step work <= budget" ~count:50
    QCheck.(pair (int_range 1 50) (int_range 51 500))
    (fun (budget, work) ->
      let job = Incremental.create (fun tick -> for _ = 1 to work do tick () done) in
      let ok = ref true in
      let rec drive () =
        let before = Incremental.work_spent job in
        match Incremental.step job ~budget with
        | `Done () -> if Incremental.work_spent job - before > budget then ok := false
        | `More ->
          if Incremental.work_spent job - before > budget then ok := false;
          drive ()
      in
      drive ();
      !ok && Incremental.work_spent job = work)

let qsuite =
  List.map Qc.to_alcotest
    [ prop_reporter_vs_naive; prop_reporter_count_range; prop_fenwick;
      prop_incremental_budget_respected ]

let suite =
  [ ("reporter basic", `Quick, test_reporter_basic);
    ("reporter report range", `Quick, test_reporter_report_range);
    ("reporter next_one", `Quick, test_reporter_next_one);
    ("reporter empty words", `Quick, test_reporter_empty_words);
    ("reporter of_bitvec", `Quick, test_reporter_of_bitvec);
    ("reporter partial last word", `Quick, test_reporter_partial_word_lengths);
    ("fenwick basic", `Quick, test_fenwick_basic);
    ("fenwick ones", `Quick, test_fenwick_ones);
    ("fenwick search", `Quick, test_fenwick_search);
    ("fenwick space_bits", `Quick, test_fenwick_space_bits);
    ("reporter space_bits", `Quick, test_reporter_space_bits);
    ("incremental steps", `Quick, test_incremental_steps);
    ("incremental force", `Quick, test_incremental_force);
    ("incremental zero work", `Quick, test_incremental_zero_work);
    ("incremental sais", `Quick, test_incremental_sais) ]
  @ qsuite
  @ [ Qc.to_alcotest prop_reporter_report_ranges;
      ("select and report allocate nothing", `Quick, test_scans_allocate_nothing) ]
