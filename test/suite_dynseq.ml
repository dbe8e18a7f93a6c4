(* Tests for dsdg_dynseq: the SPSI dynamic bit vector, the dynamic
   wavelet tree and the baseline dynamic FM-index, all against naive
   models. *)

open Dsdg_dynseq

let check = Alcotest.(check int)

(* --- Spsi: conformance against closed forms and a bool-array model ---

   Every test drives the public API through the 62-bit word edges
   (61/62/63), the leaf-split threshold (991/992/993) and, in the deep
   test, past [fanout * leaf_max] bits so internal nodes split, then
   back down so leaves merge, borrow and the root collapses. *)

(* The naive reference: a growable bool array with O(n) everything. *)
module Model = struct
  type t = { mutable bits : bool array; mutable n : int }

  let create () = { bits = Array.make 8 false; n = 0 }
  let len t = t.n
  let get t i = t.bits.(i)

  let insert t i b =
    if t.n = Array.length t.bits then begin
      let nb = Array.make (2 * t.n) false in
      Array.blit t.bits 0 nb 0 t.n;
      t.bits <- nb
    end;
    Array.blit t.bits i t.bits (i + 1) (t.n - i);
    t.bits.(i) <- b;
    t.n <- t.n + 1

  let delete t i =
    Array.blit t.bits (i + 1) t.bits i (t.n - i - 1);
    t.n <- t.n - 1

  let set t i b = t.bits.(i) <- b

  let rank1 t i =
    let acc = ref 0 in
    for j = 0 to i - 1 do
      if t.bits.(j) then incr acc
    done;
    !acc

  let ones t = rank1 t t.n

  (* position of the [k]-th bit equal to [b] *)
  let select t b k =
    let seen = ref 0 and res = ref (-1) in
    for j = 0 to t.n - 1 do
      if !res < 0 && t.bits.(j) = b then begin
        if !seen = k then res := j;
        incr seen
      end
    done;
    !res

  let to_bools t = List.init t.n (fun i -> t.bits.(i))
end

let spsi_sizes = [ 61; 62; 63; 991; 992; 993 ]

(* Deterministic boundary sweep: build to exactly [size] bits, check
   rank/select/get at every word edge, then insert and delete across
   each edge. *)
let test_spsi_boundaries () =
  List.iter
    (fun size ->
      let bv = Spsi.create () in
      for i = 0 to size - 1 do
        Spsi.push_back bv (i mod 3 = 0)
      done;
      let expect_ones = (size + 2) / 3 in
      check (Printf.sprintf "len %d" size) size (Spsi.len bv);
      check (Printf.sprintf "ones %d" size) expect_ones (Spsi.ones bv);
      List.iter
        (fun pos ->
          if pos >= 0 && pos <= size then
            check (Printf.sprintf "rank1 %d/%d" pos size) ((pos + 2) / 3) (Spsi.rank1 bv pos))
        [ 0; 1; 61; 62; 63; 123; 124; 125; 991; 992; 993; size - 1; size ];
      (* select1 k lands on 3k; select0 round-trips through rank0 *)
      for k = 0 to min 9 (expect_ones - 1) do
        check (Printf.sprintf "select1 %d/%d" k size) (3 * k) (Spsi.select1 bv k)
      done;
      let z = Spsi.zeros bv in
      let p = Spsi.select0 bv (z - 1) in
      Alcotest.(check bool)
        (Printf.sprintf "select0 last %d" size)
        true
        ((not (Spsi.get bv p)) && Spsi.rank0 bv (p + 1) = z);
      (* punch an insert + delete through every word edge near the end *)
      List.iter
        (fun pos ->
          if pos <= Spsi.len bv then begin
            Spsi.insert bv pos true;
            check (Printf.sprintf "ins len @%d/%d" pos size) (size + 1) (Spsi.len bv);
            Alcotest.(check bool) (Printf.sprintf "ins get @%d/%d" pos size) true (Spsi.get bv pos);
            Spsi.delete bv pos;
            check (Printf.sprintf "del len @%d/%d" pos size) size (Spsi.len bv)
          end)
        [ 0; 61; 62; 63; 991; 992; 993; size ];
      let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
      Alcotest.(check bool)
        (Printf.sprintf "oob raises %d" size)
        true
        (raises (fun () -> Spsi.rank1 bv (size + 1))
        && raises (fun () -> Spsi.get bv size)
        && raises (fun () -> Spsi.set bv size true)
        && raises (fun () -> Spsi.select1 bv expect_ones)
        && raises (fun () -> Spsi.select0 bv z)
        && raises (fun () -> Spsi.insert bv (-1) true)
        && raises (fun () -> Spsi.delete bv size)))
    spsi_sizes

(* Out-of-range select raises Invalid_argument, matching
   insert/delete/rank -- including on an empty vector. *)
let test_spsi_select_out_of_range () =
  let bv = Spsi.create () in
  Alcotest.check_raises "select1 on empty" (Invalid_argument "Spsi.select1") (fun () ->
      ignore (Spsi.select1 bv 0));
  Alcotest.check_raises "select0 on empty" (Invalid_argument "Spsi.select0") (fun () ->
      ignore (Spsi.select0 bv 0));
  List.iter (Spsi.push_back bv) [ true; false; true; true; false ];
  check "select1 k=0" 0 (Spsi.select1 bv 0);
  check "select1 last" 3 (Spsi.select1 bv 2);
  check "select0 k=0" 1 (Spsi.select0 bv 0);
  check "select0 last" 4 (Spsi.select0 bv 1);
  Alcotest.check_raises "select1 k=ones" (Invalid_argument "Spsi.select1") (fun () ->
      ignore (Spsi.select1 bv 3));
  Alcotest.check_raises "select0 k=zeros" (Invalid_argument "Spsi.select0") (fun () ->
      ignore (Spsi.select0 bv 2));
  Alcotest.check_raises "select1 k<0" (Invalid_argument "Spsi.select1") (fun () ->
      ignore (Spsi.select1 bv (-1)))

(* Seeded churn property: insert / delete / set against the model,
   then len, ones, rank, get and select at the word edges. *)
let prop_spsi_matches_model =
  QCheck.Test.make ~name:"matches model under churn" ~count:30
    QCheck.(pair (int_bound 100000) (int_range 100 1500))
    (fun (seed, n) ->
      let st = Random.State.make [| seed; 0x5e71 |] in
      let bv = Spsi.create () and m = Model.create () in
      for _ = 1 to n do
        let len = Model.len m in
        let r = Random.State.float st 1.0 in
        if r < 0.55 || len = 0 then begin
          let pos = Random.State.int st (len + 1) and b = Random.State.bool st in
          Spsi.insert bv pos b;
          Model.insert m pos b
        end
        else if r < 0.75 then begin
          let pos = Random.State.int st len in
          Spsi.delete bv pos;
          Model.delete m pos
        end
        else begin
          let pos = Random.State.int st len and b = Random.State.bool st in
          Spsi.set bv pos b;
          Model.set m pos b
        end
      done;
      let n = Model.len m and ones = Model.ones m in
      Spsi.len bv = n
      && Spsi.ones bv = ones
      && List.for_all
           (fun i -> Spsi.rank1 bv i = Model.rank1 m i)
           (List.filter (fun i -> i <= n) [ 0; n / 3; 61; 62; 63; n - 1; n ])
      && List.for_all
           (fun i -> Spsi.get bv i = Model.get m i)
           (List.filter (fun i -> i >= 0 && i < n) [ 0; 1; n / 2; n - 1 ])
      && (ones = 0 || Spsi.select1 bv (ones - 1) = Model.select m true (ones - 1))
      && (ones = n || Spsi.select0 bv (n - ones - 1) = Model.select m false (n - ones - 1)))

(* Deep churn against the model at sizes that force B-tree internal
   splits (> fanout * leaf_max bits) and, on the way back down, leaf
   merges, rebalances and root collapses. *)
let test_spsi_splits_and_merges () =
  let st = Random.State.make [| 0xb7ee |] in
  let s = Spsi.create () and m = Model.create () in
  let insert pos b =
    Spsi.insert s pos b;
    Model.insert m pos b
  and delete pos =
    Spsi.delete s pos;
    Model.delete m pos
  in
  let target = (Spsi.fanout * Spsi.leaf_max) + 4096 in
  while Model.len m < target do
    insert (Random.State.int st (Model.len m + 1)) (Random.State.int st 4 = 0)
  done;
  let agree tag =
    check (tag ^ " len") (Model.len m) (Spsi.len s);
    let ones = Model.ones m in
    check (tag ^ " ones") ones (Spsi.ones s);
    for _ = 1 to 200 do
      let i = Random.State.int st (Model.len m + 1) in
      check (Printf.sprintf "%s rank1 %d" tag i) (Model.rank1 m i) (Spsi.rank1 s i)
    done;
    let zeros = Model.len m - ones in
    for _ = 1 to 100 do
      if ones > 0 then begin
        let k = Random.State.int st ones in
        check (Printf.sprintf "%s select1 %d" tag k) (Model.select m true k) (Spsi.select1 s k)
      end;
      if zeros > 0 then begin
        let k = Random.State.int st zeros in
        check (Printf.sprintf "%s select0 %d" tag k) (Model.select m false k) (Spsi.select0 s k)
      end
    done
  in
  agree "grown";
  (* mixed churn at depth *)
  for _ = 1 to 4000 do
    if Random.State.bool st then insert (Random.State.int st (Model.len m + 1)) (Random.State.bool st)
    else delete (Random.State.int st (Model.len m))
  done;
  agree "churned";
  (* shrink to almost nothing: forces merges all the way to the root *)
  while Model.len m > 40 do
    delete (Random.State.int st (Model.len m))
  done;
  agree "shrunk";
  Alcotest.(check (list bool)) "shrunk bits" (Model.to_bools m) (Spsi.to_bools s)

(* Space accounting: every figure derives from word_bits. *)
let test_spsi_space_word_bits () =
  let w = Dsdg_bits.Popcount.word_bits in
  let bv = Spsi.create () in
  for i = 0 to 4999 do
    Spsi.push_back bv (i mod 5 = 0)
  done;
  let bits = Spsi.space_bits bv in
  Alcotest.(check bool) "multiple of word_bits" true (bits mod w = 0);
  Alcotest.(check bool) "covers payload" true (bits >= 5000);
  (* leaves at >= quarter fill with two header words each, plus one
     internal node of counter arrays *)
  Alcotest.(check bool) "bounded" true (bits <= 5000 * 6)

(* --- Dyn_wavelet vs naive int list --- *)

let prop_dwt_matches_model =
  QCheck.Test.make ~name:"dyn_wavelet matches naive model under churn" ~count:50
    QCheck.(triple (int_bound 10000) (int_range 2 17) (int_range 30 300))
    (fun (seed, sigma, ops) ->
      let st = Random.State.make [| seed; 29 |] in
      let wt = Dyn_wavelet.create ~sigma () in
      let model = ref [||] in
      for _ = 1 to ops do
        let len = Array.length !model in
        if Random.State.float st 1.0 < 0.7 || len = 0 then begin
          let pos = Random.State.int st (len + 1) in
          let sym = Random.State.int st sigma in
          Dyn_wavelet.insert wt pos sym;
          model := Array.concat [ Array.sub !model 0 pos; [| sym |]; Array.sub !model pos (len - pos) ]
        end
        else begin
          let pos = Random.State.int st len in
          Dyn_wavelet.delete wt pos;
          model := Array.concat [ Array.sub !model 0 pos; Array.sub !model (pos + 1) (len - pos - 1) ]
        end
      done;
      let a = !model in
      let ok = ref (Dyn_wavelet.to_array wt = a) in
      for c = 0 to sigma - 1 do
        let cnt = ref 0 in
        Array.iteri
          (fun i x ->
            if Dyn_wavelet.rank wt c i <> !cnt then ok := false;
            if x = c then incr cnt)
          a;
        if Dyn_wavelet.rank wt c (Array.length a) <> !cnt then ok := false;
        let seen = ref 0 in
        Array.iteri
          (fun i x ->
            if x = c then begin
              if Dyn_wavelet.select wt c !seen <> i then ok := false;
              incr seen
            end)
          a
      done;
      !ok)

(* --- Dyn_fm vs naive search --- *)

let naive_count docs p =
  let pl = String.length p in
  Hashtbl.fold
    (fun _ str acc ->
      let c = ref 0 in
      for off = 0 to String.length str - pl do
        if String.sub str off pl = p then incr c
      done;
      acc + !c)
    docs 0

let naive_matches docs p =
  let pl = String.length p in
  let res = ref [] in
  Hashtbl.iter
    (fun d str ->
      for off = 0 to String.length str - pl do
        if String.sub str off pl = p then res := (d, off) :: !res
      done)
    docs;
  List.sort compare !res

let test_dynfm_basic () =
  let fm = Dyn_fm.create () in
  Dyn_fm.insert fm ~doc:0 "banana";
  Dyn_fm.insert fm ~doc:1 "bandana";
  Dyn_fm.insert fm ~doc:2 "ananas";
  check "count ana" 5 (Dyn_fm.count fm "ana");
  check "count ban" 2 (Dyn_fm.count fm "ban");
  check "count zz" 0 (Dyn_fm.count fm "zz");
  let docs = Hashtbl.create 4 in
  Hashtbl.replace docs 0 "banana";
  Hashtbl.replace docs 1 "bandana";
  Hashtbl.replace docs 2 "ananas";
  Alcotest.(check (list (pair int int))) "locate ana" (naive_matches docs "ana") (Dyn_fm.search fm "ana")

let test_dynfm_delete () =
  let fm = Dyn_fm.create () in
  Dyn_fm.insert fm ~doc:0 "banana";
  Dyn_fm.insert fm ~doc:1 "bandana";
  Alcotest.(check bool) "delete" true (Dyn_fm.delete fm 0);
  check "count ana after" 1 (Dyn_fm.count fm "ana");
  check "count ban after" 1 (Dyn_fm.count fm "ban");
  Alcotest.(check bool) "delete gone" false (Dyn_fm.delete fm 0);
  Alcotest.(check bool) "delete other" true (Dyn_fm.delete fm 1);
  check "empty" 0 (Dyn_fm.total_symbols fm)

let test_dynfm_empty_doc () =
  let fm = Dyn_fm.create () in
  Dyn_fm.insert fm ~doc:7 "";
  check "one symbol" 1 (Dyn_fm.total_symbols fm);
  Alcotest.(check bool) "delete empty doc" true (Dyn_fm.delete fm 7);
  check "zero" 0 (Dyn_fm.total_symbols fm)

let prop_dynfm_matches_naive =
  QCheck.Test.make ~name:"dyn_fm count+locate match naive under churn" ~count:40
    QCheck.(pair (int_bound 10000) (int_range 10 40))
    (fun (seed, ops) ->
      let st = Random.State.make [| seed; 31 |] in
      let fm = Dyn_fm.create () in
      let docs = Hashtbl.create 16 in
      let next = ref 0 in
      for _ = 1 to ops do
        if Random.State.float st 1.0 < 0.7 || Hashtbl.length docs = 0 then begin
          let len = Random.State.int st 25 in
          let text = String.init len (fun _ -> Char.chr (97 + Random.State.int st 3)) in
          Dyn_fm.insert fm ~doc:!next text;
          Hashtbl.replace docs !next text;
          incr next
        end
        else begin
          let ids = Hashtbl.fold (fun d _ acc -> d :: acc) docs [] in
          let id = List.nth ids (Random.State.int st (List.length ids)) in
          ignore (Dyn_fm.delete fm id);
          Hashtbl.remove docs id
        end
      done;
      List.for_all
        (fun p ->
          Dyn_fm.count fm p = naive_count docs p && Dyn_fm.search fm p = naive_matches docs p)
        [ "a"; "b"; "ab"; "ba"; "ca"; "abc" ])

(* --- Dyn_fm sentinel bookkeeping under heavy churn ---

   Regression for the quadratic list-based sentinel order (append =
   List.@, row lookup = index_of, locate = List.nth, remove =
   List.filter -- each O(ndocs)).  5000 live docs * O(ndocs) walks took
   minutes; with the indexable slot array + liveness bitvector the whole
   cycle is seconds even in CI.  Correctness is asserted throughout:
   counts during the build-up, locate at full size, emptiness at the
   end. *)

let test_dynfm_churn_5k () =
  let fm = Dyn_fm.create () in
  let n = 5000 in
  for d = 0 to n - 1 do
    Dyn_fm.insert fm ~doc:d (if d mod 3 = 0 then "ab" else "ba")
  done;
  check "docs" n (Dyn_fm.doc_count fm);
  check "count ab at peak" (((n + 2) / 3) + 0) (Dyn_fm.count fm "ab");
  (* delete the even docs, reinsert a batch, then drain everything --
     sentinel slots keep appending while liveness toggles *)
  for d = 0 to n - 1 do
    if d mod 2 = 0 then ignore (Dyn_fm.delete fm d)
  done;
  check "docs after evens" (n / 2) (Dyn_fm.doc_count fm);
  for d = n to n + 99 do
    Dyn_fm.insert fm ~doc:d "aa"
  done;
  check "count aa" 100 (Dyn_fm.count fm "aa");
  (match Dyn_fm.search fm "aa" with
  | (d, 0) :: _ -> Alcotest.(check bool) "locate fresh doc" true (d >= n)
  | other -> Alcotest.failf "unexpected aa matches: %d" (List.length other));
  for d = 0 to n + 99 do
    if Dyn_fm.mem fm d then ignore (Dyn_fm.delete fm d)
  done;
  check "empty" 0 (Dyn_fm.total_symbols fm)

(* The SPSI battery is its own suite. Its name is kept at 11
   characters, the widest suite label, because alcotest sizes the
   test-name column from the widest label and the printed names of
   every other suite depend on it. *)
let spsi_suite =
  [ ("word boundaries", `Quick, test_spsi_boundaries);
    ("select out of range", `Quick, test_spsi_select_out_of_range);
    ("splits and merges vs model", `Quick, test_spsi_splits_and_merges);
    ("space from word_bits", `Quick, test_spsi_space_word_bits);
    Qc.to_alcotest prop_spsi_matches_model ]

let suite =
  [ ("dyn_fm basic", `Quick, test_dynfm_basic);
    ("dyn_fm delete", `Quick, test_dynfm_delete);
    ("dyn_fm empty doc", `Quick, test_dynfm_empty_doc);
    ("dyn_fm sentinel churn 5k", `Slow, test_dynfm_churn_5k) ]
  @ List.map Qc.to_alcotest [ prop_dwt_matches_model; prop_dynfm_matches_naive ]
