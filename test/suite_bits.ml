(* Tests for dsdg_bits: Popcount, Bitvec, Rank_select, Int_vec, Elias_fano. *)

open Dsdg_bits

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Naive reference implementations. *)
let naive_rank1 bools i =
  let acc = ref 0 in
  List.iteri (fun j b -> if j < i && b then incr acc) bools;
  !acc

let naive_select bools which k =
  let rec go j seen = function
    | [] -> raise Not_found
    | b :: rest ->
      if b = which then if seen = k then j else go (j + 1) (seen + 1) rest
      else go (j + 1) seen rest
  in
  go 0 0 bools

let random_bools st n p =
  List.init n (fun _ -> Random.State.float st 1.0 < p)

(* --- popcount --- *)

(* Every space figure in the library derives from this constant (an
   OCaml int carries 62 payload bits on 64-bit platforms); the old
   accounting hard-coded 63 in several space_bits implementations. *)
let test_word_bits () =
  check "word_bits" 62 Popcount.word_bits;
  check "word_bits = bits of max_int" (Popcount.count max_int) Popcount.word_bits;
  check "low_mask full" max_int (Popcount.low_mask Popcount.word_bits)

let test_popcount_small () =
  check "0" 0 (Popcount.count 0);
  check "1" 1 (Popcount.count 1);
  check "255" 8 (Popcount.count 255);
  check "max_int" 62 (Popcount.count max_int);
  check "max_int minus low bit" 61 (Popcount.count (max_int lxor 1))

let test_popcount_select () =
  (* k-th set bit of a known pattern *)
  let x = 0b101101 in
  check "sel0" 0 (Popcount.select x 0);
  check "sel1" 2 (Popcount.select x 1);
  check "sel2" 3 (Popcount.select x 2);
  check "sel3" 5 (Popcount.select x 3)

let prop_popcount_select =
  QCheck.Test.make ~name:"popcount: select is inverse of rank" ~count:500
    QCheck.(pair (int_bound (1 lsl 30)) (int_bound 62))
    (fun (x, _) ->
      let c = Popcount.count x in
      let ok = ref true in
      for k = 0 to c - 1 do
        let p = Popcount.select x k in
        if (x lsr p) land 1 <> 1 then ok := false;
        (* rank of p = k *)
        let r = Popcount.count (x land ((1 lsl p) - 1)) in
        if r <> k then ok := false
      done;
      !ok)

(* --- bitvec --- *)

let test_bitvec_basic () =
  let bv = Bitvec.create 130 in
  check "len" 130 (Bitvec.length bv);
  check "count0" 0 (Bitvec.count bv);
  Bitvec.set bv 0;
  Bitvec.set bv 63;
  Bitvec.set bv 129;
  check "count3" 3 (Bitvec.count bv);
  checkb "get0" true (Bitvec.get bv 0);
  checkb "get1" false (Bitvec.get bv 1);
  checkb "get63" true (Bitvec.get bv 63);
  checkb "get129" true (Bitvec.get bv 129);
  Bitvec.clear bv 63;
  checkb "cleared" false (Bitvec.get bv 63);
  check "count2" 2 (Bitvec.count bv)

let test_bitvec_full () =
  List.iter
    (fun n ->
      let bv = Bitvec.create_full n in
      check (Printf.sprintf "full %d" n) n (Bitvec.count bv))
    [ 0; 1; 62; 63; 64; 126; 127; 200 ]

let test_bitvec_bounds () =
  let bv = Bitvec.create 10 in
  Alcotest.check_raises "get -1" (Invalid_argument "Bitvec: index out of bounds") (fun () ->
      ignore (Bitvec.get bv (-1)));
  Alcotest.check_raises "get 10" (Invalid_argument "Bitvec: index out of bounds") (fun () ->
      ignore (Bitvec.get bv 10))

let test_bitvec_iter_ones () =
  let bv = Bitvec.create 300 in
  let expected = [ 0; 5; 62; 63; 64; 150; 299 ] in
  List.iter (Bitvec.set bv) expected;
  let got = ref [] in
  Bitvec.iter_ones (fun i -> got := i :: !got) bv;
  Alcotest.(check (list int)) "iter_ones" expected (List.rev !got)

let prop_bitvec_roundtrip =
  QCheck.Test.make ~name:"bitvec: of_bools/to_bools roundtrip" ~count:200
    QCheck.(list bool)
    (fun l ->
      let bv = Bitvec.of_bools l in
      Bitvec.to_bools bv = l)

(* --- rank/select --- *)

let test_rank_select_exhaustive () =
  let st = Random.State.make [| 42 |] in
  List.iter
    (fun (n, p) ->
      let bools = random_bools st n p in
      let rs = Rank_select.build (Bitvec.of_bools bools) in
      for i = 0 to n do
        check (Printf.sprintf "rank1 %d" i) (naive_rank1 bools i) (Rank_select.rank1 rs i);
        check (Printf.sprintf "rank0 %d" i) (i - naive_rank1 bools i) (Rank_select.rank0 rs i)
      done;
      let ones = Rank_select.ones rs in
      for k = 0 to ones - 1 do
        check (Printf.sprintf "select1 %d" k) (naive_select bools true k) (Rank_select.select1 rs k)
      done;
      let zeros = Rank_select.zeros rs in
      for k = 0 to zeros - 1 do
        check (Printf.sprintf "select0 %d" k) (naive_select bools false k) (Rank_select.select0 rs k)
      done)
    [ (1, 0.5); (63, 0.5); (64, 0.1); (500, 0.9); (1000, 0.01); (2000, 0.5) ]

let test_rank_select_all_ones () =
  let rs = Rank_select.build (Bitvec.create_full 1000) in
  check "ones" 1000 (Rank_select.ones rs);
  check "rank mid" 500 (Rank_select.rank1 rs 500);
  check "select" 999 (Rank_select.select1 rs 999)

let test_rank_select_all_zeros () =
  let rs = Rank_select.build (Bitvec.create 1000) in
  check "ones" 0 (Rank_select.ones rs);
  check "select0" 999 (Rank_select.select0 rs 999)

let prop_rank_select =
  QCheck.Test.make ~name:"rank/select agree with naive on random vectors" ~count:100
    QCheck.(list bool)
    (fun l ->
      let rs = Rank_select.build (Bitvec.of_bools l) in
      let n = List.length l in
      let ok = ref true in
      for i = 0 to n do
        if Rank_select.rank1 rs i <> naive_rank1 l i then ok := false
      done;
      for k = 0 to Rank_select.ones rs - 1 do
        if Rank_select.select1 rs k <> naive_select l true k then ok := false
      done;
      !ok)

let prop_select_rank_inverse =
  QCheck.Test.make ~name:"rank1 (select1 k + 1) = k + 1" ~count:200
    QCheck.(list bool)
    (fun l ->
      let rs = Rank_select.build (Bitvec.of_bools l) in
      let ok = ref true in
      for k = 0 to Rank_select.ones rs - 1 do
        let p = Rank_select.select1 rs k in
        if Rank_select.rank1 rs (p + 1) <> k + 1 then ok := false;
        if not (Rank_select.get rs p) then ok := false
      done;
      !ok)

(* --- int_vec --- *)

let test_int_vec_basic () =
  let iv = Int_vec.create ~width:7 100 in
  for i = 0 to 99 do
    Int_vec.set iv i (i mod 128)
  done;
  for i = 0 to 99 do
    check (Printf.sprintf "iv %d" i) (i mod 128) (Int_vec.get iv i)
  done

let test_int_vec_wide () =
  (* width that straddles word boundaries *)
  let iv = Int_vec.create ~width:62 10 in
  let vals = [| 0; 1; max_int lsr 1; 12345678901234; 1 lsl 61; 42; 0; (1 lsl 62) - 1; 7; 99 |] in
  Array.iteri (fun i v -> Int_vec.set iv i v) vals;
  Array.iteri (fun i v -> check (Printf.sprintf "wide %d" i) v (Int_vec.get iv i)) vals

let test_int_vec_width_for () =
  check "w1" 1 (Int_vec.width_for 0);
  check "w1b" 1 (Int_vec.width_for 1);
  check "w2" 2 (Int_vec.width_for 2);
  check "w2b" 2 (Int_vec.width_for 3);
  check "w8" 8 (Int_vec.width_for 255);
  check "w9" 9 (Int_vec.width_for 256)

let prop_int_vec_roundtrip =
  QCheck.Test.make ~name:"int_vec: set/get roundtrip at every width" ~count:100
    QCheck.(pair (int_range 1 62) (list (int_bound 1000000)))
    (fun (width, l) ->
      let mask = (1 lsl width) - 1 in
      let a = Array.of_list (List.map (fun v -> v land mask) l) in
      let iv = Int_vec.of_array ~width a in
      Int_vec.to_array iv = a)

(* --- elias_fano --- *)

let test_elias_fano_basic () =
  let vals = [| 1; 4; 7; 18; 24; 26; 30; 31 |] in
  let ef = Elias_fano.build vals in
  Array.iteri (fun i v -> check (Printf.sprintf "ef %d" i) v (Elias_fano.get ef i)) vals

let test_elias_fano_dense () =
  let vals = Array.init 100 (fun i -> i) in
  let ef = Elias_fano.build vals in
  Array.iteri (fun i v -> check (Printf.sprintf "dense %d" i) v (Elias_fano.get ef i)) vals

let test_elias_fano_rank_lt () =
  let vals = [| 2; 2; 5; 9; 9; 9; 40 |] in
  let ef = Elias_fano.build vals in
  check "lt 0" 0 (Elias_fano.rank_lt ef 0);
  check "lt 2" 0 (Elias_fano.rank_lt ef 2);
  check "lt 3" 2 (Elias_fano.rank_lt ef 3);
  check "lt 9" 3 (Elias_fano.rank_lt ef 9);
  check "lt 10" 6 (Elias_fano.rank_lt ef 10);
  check "lt 41" 7 (Elias_fano.rank_lt ef 41)

let prop_elias_fano =
  QCheck.Test.make ~name:"elias_fano: access roundtrip on sorted lists" ~count:200
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 100000))
    (fun l ->
      let a = Array.of_list (List.sort compare l) in
      let ef = Elias_fano.build a in
      let ok = ref (Elias_fano.length ef = Array.length a) in
      Array.iteri (fun i v -> if Elias_fano.get ef i <> v then ok := false) a;
      !ok)

let prop_elias_fano_rank =
  QCheck.Test.make ~name:"elias_fano: rank_lt agrees with naive" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 100) (int_bound 1000)) (int_bound 1100))
    (fun (l, v) ->
      let a = Array.of_list (List.sort compare l) in
      let ef = Elias_fano.build a in
      let naive = Array.fold_left (fun acc x -> if x < v then acc + 1 else acc) 0 a in
      Elias_fano.rank_lt ef v = naive)

(* select1/select0 and their bare-directory forms against a naive scan,
   at densities 0, 1/64, 1/2, 63/64 and 1 (in 64ths) and at lengths
   around a word (62), a superblock (496) and many superblocks. *)
let prop_select_densities =
  let lengths = [| 0; 1; 61; 62; 63; 496; 497; 10_000 |] and densities = [| 0; 1; 32; 63; 64 |] in
  QCheck.Test.make ~name:"rank/select: select and select_in = naive scan at every density" ~count:120
    QCheck.(triple (int_bound (Array.length lengths - 1)) (int_bound (Array.length densities - 1)) small_nat)
    (fun (li, di, seed) ->
      let len = lengths.(li) and density = densities.(di) in
      let st = Random.State.make [| seed; len; density |] in
      let bools = Array.init len (fun _ -> Random.State.int st 64 < density) in
      let bv = Bitvec.of_bools (Array.to_list bools) in
      let rs = Rank_select.build bv in
      let words = Bitvec.words bv in
      let super = Rank_select.directory words in
      let ok = ref true and k1 = ref 0 and k0 = ref 0 in
      Array.iteri
        (fun i b ->
          if b then begin
            if Rank_select.select1 rs !k1 <> i || Rank_select.select1_in words super !k1 <> i then
              ok := false;
            incr k1
          end
          else begin
            if Rank_select.select0 rs !k0 <> i || Rank_select.select0_in words super ~len !k0 <> i
            then ok := false;
            incr k0
          end)
        bools;
      !ok && Rank_select.ones rs = !k1 && Rank_select.zeros rs = !k0)

let qsuite = List.map Qc.to_alcotest
  [ prop_popcount_select; prop_bitvec_roundtrip; prop_rank_select;
    prop_select_rank_inverse; prop_int_vec_roundtrip; prop_elias_fano;
    prop_elias_fano_rank ]

let suite =
  [ ("word_bits constant", `Quick, test_word_bits);
    ("popcount small", `Quick, test_popcount_small);
    ("popcount select", `Quick, test_popcount_select);
    ("bitvec basic", `Quick, test_bitvec_basic);
    ("bitvec full", `Quick, test_bitvec_full);
    ("bitvec bounds", `Quick, test_bitvec_bounds);
    ("bitvec iter_ones", `Quick, test_bitvec_iter_ones);
    ("rank/select exhaustive", `Quick, test_rank_select_exhaustive);
    ("rank/select all ones", `Quick, test_rank_select_all_ones);
    ("rank/select all zeros", `Quick, test_rank_select_all_zeros);
    ("int_vec basic", `Quick, test_int_vec_basic);
    ("int_vec wide", `Quick, test_int_vec_wide);
    ("int_vec width_for", `Quick, test_int_vec_width_for);
    ("elias_fano basic", `Quick, test_elias_fano_basic);
    ("elias_fano dense", `Quick, test_elias_fano_dense);
    ("elias_fano rank_lt", `Quick, test_elias_fano_rank_lt) ]
  @ qsuite
  @ [ Qc.to_alcotest prop_select_densities ]
