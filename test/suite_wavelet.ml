(* Tests for dsdg_wavelet: balanced and Huffman-shaped wavelet trees. *)

open Dsdg_wavelet

let check = Alcotest.(check int)

(* Naive references over int arrays. *)
let naive_rank a c i =
  let acc = ref 0 in
  Array.iteri (fun j x -> if j < i && x = c then incr acc) a;
  !acc

let naive_select a c k =
  let seen = ref 0 and res = ref (-1) in
  Array.iteri (fun j x -> if x = c && !res < 0 then begin
      if !seen = k then res := j;
      incr seen
    end) a;
  if !res < 0 then raise Not_found else !res

(* Run the same battery against any sequence structure via first-class
   functions, so both wavelet variants share the checks. *)
let battery name ~access ~rank ~select ~len ~sigma (a : int array) =
  check (name ^ " len") (Array.length a) len;
  Array.iteri (fun i x -> check (Printf.sprintf "%s access %d" name i) x (access i)) a;
  for c = 0 to sigma - 1 do
    for i = 0 to Array.length a do
      check (Printf.sprintf "%s rank c=%d i=%d" name c i) (naive_rank a c i) (rank c i)
    done;
    let total = naive_rank a c (Array.length a) in
    for k = 0 to total - 1 do
      check (Printf.sprintf "%s select c=%d k=%d" name c k) (naive_select a c k) (select c k)
    done;
    Alcotest.check_raises (Printf.sprintf "%s select beyond c=%d" name c) Not_found (fun () ->
        ignore (select c total))
  done

let battery_wt a sigma =
  let wt = Wavelet_tree.build ~sigma a in
  battery "wt" ~access:(Wavelet_tree.access wt) ~rank:(Wavelet_tree.rank wt)
    ~select:(Wavelet_tree.select wt) ~len:(Wavelet_tree.length wt) ~sigma a

let battery_hwt a sigma =
  let wt = Huffman_wavelet.build ~sigma a in
  battery "hwt" ~access:(Huffman_wavelet.access wt) ~rank:(Huffman_wavelet.rank wt)
    ~select:(Huffman_wavelet.select wt) ~len:(Huffman_wavelet.length wt) ~sigma a

let test_wt_small () = battery_wt [| 3; 1; 4; 1; 5; 2; 6; 5; 3; 5 |] 8
let test_hwt_small () = battery_hwt [| 3; 1; 4; 1; 5; 2; 6; 5; 3; 5 |] 8
let test_wt_unary () = battery_wt (Array.make 50 0) 1
let test_hwt_unary () = battery_hwt (Array.make 50 0) 3
let test_wt_binary () = battery_wt [| 0; 1; 1; 0; 1; 0; 0; 0; 1 |] 2
let test_hwt_binary () = battery_hwt [| 0; 1; 1; 0; 1; 0; 0; 0; 1 |] 2

let test_wt_skewed () =
  (* heavily skewed distribution; exercises Huffman code depths *)
  let a = Array.init 300 (fun i -> if i mod 17 = 0 then i mod 5 else 0) in
  battery_wt a 5;
  battery_hwt a 5

let test_hwt_missing_symbols () =
  (* alphabet has holes: symbols 1 and 3 never occur *)
  let a = [| 0; 2; 4; 2; 0; 4; 4 |] in
  let wt = Huffman_wavelet.build ~sigma:5 a in
  check "rank missing" 0 (Huffman_wavelet.rank wt 1 7);
  check "count missing" 0 (Huffman_wavelet.count wt 3);
  Alcotest.check_raises "select missing" Not_found (fun () ->
      ignore (Huffman_wavelet.select wt 1 0));
  battery_hwt a 5

let test_hwt_compression () =
  (* Huffman-shaped tree must use close to n*H0 bits, far less than the
     balanced tree, on a skewed sequence over a large alphabet *)
  let st = Random.State.make [| 11 |] in
  let a =
    Array.init 20000 (fun _ ->
        if Random.State.float st 1.0 < 0.9 then 0 else 1 + Random.State.int st 255)
  in
  let bal = Wavelet_tree.build ~sigma:256 a in
  let huf = Huffman_wavelet.build ~sigma:256 a in
  let sb = Wavelet_tree.space_bits bal and sh = Huffman_wavelet.space_bits huf in
  Alcotest.(check bool)
    (Printf.sprintf "huffman (%d bits) < 75%% of balanced (%d bits)" sh sb)
    true
    (float_of_int sh < 0.75 *. float_of_int sb)

let test_empty () =
  let wt = Huffman_wavelet.build ~sigma:4 [||] in
  check "len" 0 (Huffman_wavelet.length wt);
  check "rank" 0 (Huffman_wavelet.rank wt 2 0)

let gen_seq = QCheck.(pair (int_range 1 12) (list_of_size Gen.(0 -- 150) (int_bound 11)))

let prop_wt =
  QCheck.Test.make ~name:"balanced wavelet agrees with naive" ~count:150 gen_seq
    (fun (sigma, l) ->
      let a = Array.of_list (List.map (fun x -> x mod sigma) l) in
      let wt = Wavelet_tree.build ~sigma a in
      let ok = ref (Wavelet_tree.to_array wt = a) in
      for c = 0 to sigma - 1 do
        for i = 0 to Array.length a do
          if Wavelet_tree.rank wt c i <> naive_rank a c i then ok := false
        done
      done;
      !ok)

let prop_hwt =
  QCheck.Test.make ~name:"huffman wavelet agrees with naive" ~count:150 gen_seq
    (fun (sigma, l) ->
      let a = Array.of_list (List.map (fun x -> x mod sigma) l) in
      let wt = Huffman_wavelet.build ~sigma a in
      let ok = ref (Huffman_wavelet.to_array wt = a) in
      for c = 0 to sigma - 1 do
        for i = 0 to Array.length a do
          if Huffman_wavelet.rank wt c i <> naive_rank a c i then ok := false
        done
      done;
      !ok)

let prop_select_rank_inverse =
  QCheck.Test.make ~name:"wavelet: rank (select k) = k" ~count:150 gen_seq
    (fun (sigma, l) ->
      let a = Array.of_list (List.map (fun x -> x mod sigma) l) in
      let wt = Wavelet_tree.build ~sigma a in
      let ok = ref true in
      for c = 0 to sigma - 1 do
        let total = Wavelet_tree.count wt c in
        for k = 0 to total - 1 do
          let p = Wavelet_tree.select wt c k in
          if Wavelet_tree.rank wt c p <> k then ok := false;
          if Wavelet_tree.access wt p <> c then ok := false
        done
      done;
      !ok)

let prop_huffman_codes_prefix_free =
  QCheck.Test.make ~name:"huffman codes are prefix-free" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (int_range 1 100))
    (fun freqs_l ->
      let freqs = Array.of_list freqs_l in
      let sigma = Array.length freqs in
      let codes = Huffman.codes ~sigma freqs in
      let ok = ref true in
      for a = 0 to sigma - 1 do
        for b = 0 to sigma - 1 do
          if a <> b then begin
            let ca = codes.(a) and cb = codes.(b) in
            if ca.Huffman.len > 0 && cb.Huffman.len > 0 && ca.Huffman.len <= cb.Huffman.len then begin
              let prefix = cb.Huffman.bits lsr (cb.Huffman.len - ca.Huffman.len) in
              if prefix = ca.Huffman.bits then ok := false
            end
          end
        done
      done;
      !ok)

let prop_huffman_optimal_vs_entropy =
  QCheck.Test.make ~name:"huffman average length within [H0, H0+1)" ~count:100
    QCheck.(list_of_size Gen.(2 -- 20) (int_range 1 500))
    (fun freqs_l ->
      let freqs = Array.of_list freqs_l in
      let sigma = Array.length freqs in
      let codes = Huffman.codes ~sigma freqs in
      let avg = Huffman.average_length freqs codes in
      let total = Array.fold_left ( + ) 0 freqs in
      let h0 =
        Array.fold_left
          (fun acc f ->
            if f = 0 then acc
            else
              let p = float_of_int f /. float_of_int total in
              acc -. (p *. (log p /. log 2.)))
          0.0 freqs
      in
      avg >= h0 -. 1e-9 && avg < h0 +. 1.0 +. 1e-9)

let battery_ap a sigma =
  let ap = Alphabet_partition.build ~sigma a in
  battery "ap" ~access:(Alphabet_partition.access ap) ~rank:(Alphabet_partition.rank ap)
    ~select:(Alphabet_partition.select ap) ~len:(Alphabet_partition.length ap) ~sigma a

let test_ap_small () = battery_ap [| 3; 1; 4; 1; 5; 2; 6; 5; 3; 5 |] 8
let test_ap_skewed () =
  (* wildly different frequencies to populate several groups *)
  let a = Array.init 500 (fun i -> if i mod 50 = 0 then 1 + (i mod 7) else 0) in
  battery_ap a 8

let test_ap_missing_symbols () =
  let a = [| 0; 2; 4; 2; 0; 4; 4 |] in
  let ap = Alphabet_partition.build ~sigma:6 a in
  check "rank missing" 0 (Alphabet_partition.rank ap 1 7);
  check "count missing" 0 (Alphabet_partition.count ap 5);
  Alcotest.check_raises "select missing" Not_found (fun () ->
      ignore (Alphabet_partition.select ap 1 0));
  battery_ap a 6

let prop_ap =
  QCheck.Test.make ~name:"alphabet partition agrees with naive" ~count:150 gen_seq
    (fun (sigma, l) ->
      let a = Array.of_list (List.map (fun x -> x mod sigma) l) in
      let ap = Alphabet_partition.build ~sigma a in
      let ok = ref (Alphabet_partition.to_array ap = a) in
      for c = 0 to sigma - 1 do
        for i = 0 to Array.length a do
          if Alphabet_partition.rank ap c i <> naive_rank a c i then ok := false
        done
      done;
      !ok)

let prop_ap_matches_hwt =
  QCheck.Test.make ~name:"alphabet partition agrees with huffman wavelet" ~count:100 gen_seq
    (fun (sigma, l) ->
      let a = Array.of_list (List.map (fun x -> x mod sigma) l) in
      let ap = Alphabet_partition.build ~sigma a in
      let hw = Huffman_wavelet.build ~sigma a in
      let ok = ref true in
      for c = 0 to sigma - 1 do
        if Alphabet_partition.count ap c <> Huffman_wavelet.count hw c then ok := false;
        for i = 0 to Array.length a do
          if Alphabet_partition.rank ap c i <> Huffman_wavelet.rank hw c i then ok := false
        done
      done;
      !ok)

(* Lengths past one rank superblock (496 bits), so the embedded
   directories are exercised too; one-letter alphabets and empty
   sequences included. *)
let gen_long_seq = QCheck.(pair (int_range 1 40) (list_of_size Gen.(0 -- 2500) (int_bound 39)))

let prop_hwt_access_rank =
  QCheck.Test.make ~name:"hwt access_rank = (access, rank), to_array = access" ~count:60
    gen_long_seq (fun (sigma, l) ->
      let a = Array.of_list (List.map (fun x -> x mod sigma) l) in
      let wt = Huffman_wavelet.build ~sigma a in
      let ok = ref (Huffman_wavelet.to_array wt = Array.init (Array.length a) (Huffman_wavelet.access wt)) in
      let seen = Array.make sigma 0 in
      Array.iteri
        (fun i c ->
          if Huffman_wavelet.access_rank wt i <> (c, Huffman_wavelet.rank wt c i) then ok := false;
          if Huffman_wavelet.rank wt c i <> seen.(c) then ok := false;
          if Huffman_wavelet.select wt c seen.(c) <> i then ok := false;
          seen.(c) <- seen.(c) + 1)
        a;
      !ok)

let test_hwt_bulk_edges () =
  let same a =
    let wt = Huffman_wavelet.build ~sigma:5 a in
    Alcotest.(check (array int)) "to_array" a (Huffman_wavelet.to_array wt);
    Array.iteri
      (fun i c ->
        Alcotest.(check (pair int int)) "access_rank" (c, naive_rank a c i) (Huffman_wavelet.access_rank wt i))
      a
  in
  same [||];
  same [| 3 |];
  same (Array.make 1000 4);
  same (Array.init 1000 (fun i -> if i = 500 then 0 else 2))

(* [Huffman_wavelet.build] packs each node word at a time and partitions
   in place; it must give exactly the nodes of the plain per-bit
   construction: the same words, directories and one-counts, in
   pre-order. *)
let reference_nodes ~sigma a =
  if Array.length a = 0 then []
  else begin
    let freqs = Array.make sigma 0 in
    Array.iter (fun c -> freqs.(c) <- freqs.(c) + 1) a;
    let codes = Huffman.codes ~sigma freqs in
    let bit depth c = (codes.(c).Huffman.bits lsr (codes.(c).Huffman.len - 1 - depth)) land 1 in
    let rec go depth seq acc =
      if Array.length seq = 0 || codes.(seq.(0)).Huffman.len = depth then acc
      else begin
        let bv = Dsdg_bits.Bitvec.create (Array.length seq) in
        Array.iteri (fun i c -> if bit depth c = 1 then Dsdg_bits.Bitvec.set bv i) seq;
        let words = Dsdg_bits.Bitvec.words bv in
        let side b = Array.of_list (List.filter (fun c -> bit depth c = b) (Array.to_list seq)) in
        let acc = (words, Dsdg_bits.Rank_select.directory words, Dsdg_bits.Bitvec.count bv) :: acc in
        go (depth + 1) (side 1) (go (depth + 1) (side 0) acc)
      end
    in
    List.rev (go 0 a [])
  end

let same_nodes ~sigma a = Huffman_wavelet.nodes (Huffman_wavelet.build ~sigma a) = reference_nodes ~sigma a

(* random (uniform), skewed (one dominant symbol) and one-symbol
   sequences, long enough to need rank directories *)
let prop_hwt_build_equiv =
  QCheck.Test.make ~name:"hwt build = per-bit reference (words, directories, ones)" ~count:80
    QCheck.(pair (int_range 0 2) (pair (int_range 1 300) (list_of_size Gen.(0 -- 3000) (int_bound 299))))
    (fun (kind, (sigma, l)) ->
      let a =
        Array.of_list
          (List.map
             (fun x ->
               match kind with
               | 0 -> x mod sigma
               | 1 -> if x mod 11 = 0 then x mod sigma else 0
               | _ -> 0)
             l)
      in
      same_nodes ~sigma:(if kind = 2 then 1 else sigma) a)

let test_hwt_build_equiv_edges () =
  List.iter
    (fun (name, sigma, a) -> Alcotest.(check bool) name true (same_nodes ~sigma a))
    [ ("empty", 1, [||]); ("one symbol", 1, [| 0 |]); ("sigma 1", 1, Array.make 1000 0);
      ("one letter of five", 5, Array.make 1000 4);
      ("one outlier", 3, Array.init 2000 (fun i -> if i = 1234 then 2 else 1)) ]

(* The heap construction [Huffman.build_tree] used before its two
   queues, kept as the reference: a binary min-heap over (weight,
   tiebreak, tree), leaves tied in symbol order and internal nodes after
   them in creation order. *)
let reference_codes ~sigma freqs =
  let heap = ref [||] and size = ref 0 in
  let less (w1, t1, _) (w2, t2, _) = w1 < w2 || (w1 = w2 && t1 < t2) in
  let swap i j =
    let x = !heap.(i) in
    !heap.(i) <- !heap.(j);
    !heap.(j) <- x
  in
  let push e =
    if !size = Array.length !heap then heap := Array.append !heap (Array.make (!size + 1) e);
    !heap.(!size) <- e;
    incr size;
    let i = ref (!size - 1) in
    while !i > 0 && less !heap.(!i) !heap.((!i - 1) / 2) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = !heap.(0) in
    decr size;
    !heap.(0) <- !heap.(!size);
    let i = ref 0 and go = ref true in
    while !go do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 and m = ref !i in
      if l < !size && less !heap.(l) !heap.(!m) then m := l;
      if r < !size && less !heap.(r) !heap.(!m) then m := r;
      if !m = !i then go := false
      else begin
        swap !i !m;
        i := !m
      end
    done;
    top
  in
  let tie = ref 0 in
  Array.iteri
    (fun c f ->
      if f > 0 then begin
        push (f, !tie, Huffman.Sym c);
        incr tie
      end)
    freqs;
  let tree =
    if !size = 0 then None
    else if !size = 1 then
      match pop () with _, _, Huffman.Sym c -> Some (Huffman.Branch (Sym c, Sym c)) | _ -> None
    else begin
      while !size > 1 do
        let f1, _, t1 = pop () in
        let f2, _, t2 = pop () in
        push (f1 + f2, !tie, Huffman.Branch (t1, t2));
        incr tie
      done;
      let _, _, t = pop () in
      Some t
    end
  in
  match tree with
  | None -> Array.make sigma { Huffman.bits = 0; len = 0 }
  | Some t -> Huffman.codes_of_tree ~sigma t

(* Frequencies with many ties and zeros (weights from a small range),
   a single present symbol, and alphabets past 4,000 symbols. *)
let prop_huffman_codes_vs_heap =
  QCheck.Test.make ~name:"huffman two-queue codes = heap construction" ~count:120
    QCheck.(pair (int_bound 100_000) (int_range 0 3))
    (fun (seed, kind) ->
      let st = Random.State.make [| seed; 67 |] in
      let sigma =
        match kind with 0 -> 1 + Random.State.int st 40 | 3 -> 4001 + Random.State.int st 600 | _ -> 1 + Random.State.int st 300
      in
      let freqs =
        match kind with
        | 1 ->
          let a = Array.make sigma 0 in
          a.(Random.State.int st sigma) <- 1 + Random.State.int st 50;
          a
        | 2 -> Array.init sigma (fun _ -> Random.State.int st 1000)
        | _ -> Array.init sigma (fun _ -> max 0 (Random.State.int st 6 - 1))
      in
      Huffman.codes ~sigma freqs = reference_codes ~sigma freqs)

let test_huffman_codes_vs_heap_edges () =
  List.iter
    (fun (name, freqs) ->
      let sigma = Array.length freqs in
      Alcotest.(check bool) name true (Huffman.codes ~sigma freqs = reference_codes ~sigma freqs))
    [ ("empty", [||]); ("all zero", [| 0; 0; 0 |]); ("one symbol", [| 0; 7; 0 |]);
      ("all tied", Array.make 4345 3); ("fibonacci", [| 1; 1; 2; 3; 5; 8; 13; 21; 34; 55 |]) ]

let qsuite =
  List.map Qc.to_alcotest
    [ prop_wt; prop_hwt; prop_ap; prop_ap_matches_hwt; prop_select_rank_inverse;
      prop_huffman_codes_prefix_free; prop_huffman_optimal_vs_entropy; prop_huffman_codes_vs_heap ]

let suite =
  [ ("wt small", `Quick, test_wt_small);
    ("hwt small", `Quick, test_hwt_small);
    ("wt unary alphabet", `Quick, test_wt_unary);
    ("hwt unary alphabet", `Quick, test_hwt_unary);
    ("wt binary", `Quick, test_wt_binary);
    ("hwt binary", `Quick, test_hwt_binary);
    ("wt/hwt skewed", `Quick, test_wt_skewed);
    ("hwt missing symbols", `Quick, test_hwt_missing_symbols);
    ("hwt compression", `Quick, test_hwt_compression);
    ("hwt empty", `Quick, test_empty);
    ("ap small", `Quick, test_ap_small);
    ("ap skewed", `Quick, test_ap_skewed);
    ("ap missing symbols", `Quick, test_ap_missing_symbols) ]
  @ qsuite
  @ [ ("hwt bulk decode edges", `Quick, test_hwt_bulk_edges); Qc.to_alcotest prop_hwt_access_rank;
      ("hwt build = reference, edges", `Quick, test_hwt_build_equiv_edges);
      Qc.to_alcotest prop_hwt_build_equiv;
      ("huffman codes = heap construction, edges", `Quick, test_huffman_codes_vs_heap_edges) ]
