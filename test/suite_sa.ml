(* Tests for dsdg_sa: SA-IS vs naive, BWT roundtrip. *)

open Dsdg_sa

let check_arr msg a b = Alcotest.(check (array int)) msg a b

let ints_of_string s = Array.init (String.length s) (fun i -> Char.code s.[i])

let test_sais_known () =
  (* banana: suffixes sorted: a(5) ana(3) anana(1) banana(0) na(4) nana(2) *)
  let s = ints_of_string "banana" in
  check_arr "banana" [| 5; 3; 1; 0; 4; 2 |] (Sais.suffix_array s);
  check_arr "banana naive" [| 5; 3; 1; 0; 4; 2 |] (Sais.naive s)

let test_sais_mississippi () =
  let s = ints_of_string "mississippi" in
  check_arr "mississippi" (Sais.naive s) (Sais.suffix_array s)

let test_sais_edge () =
  check_arr "empty" [||] (Sais.suffix_array [||]);
  check_arr "single" [| 0 |] (Sais.suffix_array [| 5 |]);
  check_arr "aa" [| 1; 0 |] (Sais.suffix_array [| 1; 1 |]);
  check_arr "ab" [| 0; 1 |] (Sais.suffix_array [| 1; 2 |]);
  check_arr "ba" [| 1; 0 |] (Sais.suffix_array [| 2; 1 |])

let test_sais_repetitive () =
  (* deeply repetitive inputs exercise the recursion *)
  List.iter
    (fun s ->
      let a = ints_of_string s in
      check_arr s (Sais.naive a) (Sais.suffix_array a))
    [ "aaaaaaaaaa"; "abababab"; "abcabcabcabc"; "aabaabaab";
      "zyxzyxzyx"; "abaababaabaab" ]

let test_sais_large_random () =
  let st = Random.State.make [| 7 |] in
  List.iter
    (fun (n, sigma) ->
      let s = Array.init n (fun _ -> Random.State.int st sigma) in
      check_arr (Printf.sprintf "random n=%d sigma=%d" n sigma) (Sais.naive s)
        (Sais.suffix_array s))
    [ (100, 2); (100, 4); (1000, 2); (1000, 26); (2000, 256); (3000, 3) ]

let test_sais_tick () =
  (* tick must be called at least n times and not change the result *)
  let s = ints_of_string "the quick brown fox jumps over the lazy dog" in
  let ticks = ref 0 in
  let sa = Sais.suffix_array ~tick:(fun () -> incr ticks) s in
  check_arr "tick result" (Sais.naive s) sa;
  Alcotest.(check bool) "ticks >= n" true (!ticks >= Array.length s)

let prop_sais =
  QCheck.Test.make ~name:"sais agrees with naive" ~count:300
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(0 -- 200) (int_bound 7)))
    (fun (sigma, l) ->
      let s = Array.of_list (List.map (fun x -> x mod sigma) l) in
      Sais.suffix_array s = Sais.naive s)

let prop_sais_is_permutation =
  QCheck.Test.make ~name:"sais output is a permutation" ~count:200
    QCheck.(list_of_size Gen.(0 -- 300) (int_bound 3))
    (fun l ->
      let s = Array.of_list l in
      let sa = Sais.suffix_array s in
      let n = Array.length s in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) sa;
      Array.length sa = n && Array.for_all (fun b -> b) seen)

let test_bwt_known () =
  (* classic example with sentinel: BWT of "banana$" *)
  let b = Bwt.transform (ints_of_string "banana") in
  (* rows: $banana, a$banan, ana$ban, anana$b, banana$, na$bana, nana$ba *)
  (* L column: a n n b $ a a  (with +1 shift and sentinel 0) *)
  check_arr "banana bwt"
    [| Char.code 'a' + 1; Char.code 'n' + 1; Char.code 'n' + 1; Char.code 'b' + 1; 0;
       Char.code 'a' + 1; Char.code 'a' + 1 |]
    b

let test_bwt_roundtrip () =
  List.iter
    (fun s ->
      let a = ints_of_string s in
      check_arr ("roundtrip " ^ s) a (Bwt.inverse (Bwt.transform a)))
    [ "banana"; "mississippi"; "abracadabra"; "a"; "aaaa"; "the quick brown fox" ]

let prop_bwt_roundtrip =
  QCheck.Test.make ~name:"bwt: inverse . transform = id" ~count:300
    QCheck.(list_of_size Gen.(1 -- 300) (int_bound 30))
    (fun l ->
      let s = Array.of_list l in
      Bwt.inverse (Bwt.transform s) = s)

let prop_bwt_is_permutation_of_text =
  QCheck.Test.make ~name:"bwt is a permutation of text+sentinel" ~count:200
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 10))
    (fun l ->
      let s = Array.of_list l in
      let b = Bwt.transform s in
      let sorted x = List.sort compare (Array.to_list x) in
      sorted b = sorted (Array.append [| 0 |] (Array.map (fun x -> x + 1) s)))

let qsuite =
  List.map Qc.to_alcotest
    [ prop_sais; prop_sais_is_permutation; prop_bwt_roundtrip;
      prop_bwt_is_permutation_of_text ]

let suite =
  [ ("sais banana", `Quick, test_sais_known);
    ("sais mississippi", `Quick, test_sais_mississippi);
    ("sais edge cases", `Quick, test_sais_edge);
    ("sais repetitive", `Quick, test_sais_repetitive);
    ("sais large random", `Quick, test_sais_large_random);
    ("sais tick", `Quick, test_sais_tick);
    ("bwt banana", `Quick, test_bwt_known);
    ("bwt roundtrip", `Quick, test_bwt_roundtrip) ]
  @ qsuite
