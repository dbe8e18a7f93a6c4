(* Tests for dsdg_core: Sa_static, Semi_static, Transform1 (both
   schedules) checked against a naive model under churn. *)

open Dsdg_core

let check = Alcotest.(check int)

(* naive search over live (id, text) pairs, shared with the fuzzer *)
let naive_search = Dsdg_check.Model.occurrences

(* --- Sa_static conformance --- *)

let test_sa_static_basic () =
  let docs = [| "banana"; "bandana"; "ananas" |] in
  let idx = Sa_static.build ~sample:4 docs in
  check "doc_count" 3 (Sa_static.doc_count idx);
  List.iter
    (fun p ->
      let expected = naive_search (Array.to_list (Array.mapi (fun i s -> (i, s)) docs)) p in
      match Sa_static.range idx p with
      | None -> check ("none " ^ p) 0 (List.length expected)
      | Some (sp, ep) ->
        check ("width " ^ p) (List.length expected) (ep - sp);
        let got = ref [] in
        for row = sp to ep - 1 do
          got := Sa_static.locate idx row :: !got
        done;
        Alcotest.(check (list (pair int int))) ("locs " ^ p) expected (List.sort compare !got))
    [ "a"; "an"; "ana"; "ban"; "nd"; "s"; "zz"; "banana" ]

let test_sa_static_extract () =
  let idx = Sa_static.build ~sample:1 [| "hello world"; "foo" |] in
  Alcotest.(check string) "extract" "world" (Sa_static.extract idx ~doc:0 ~off:6 ~len:5);
  Alcotest.(check string) "extract2" "foo" (Sa_static.extract idx ~doc:1 ~off:0 ~len:3)

let prop_sa_static_vs_fm =
  let gen_doc = QCheck.Gen.(string_size ~gen:(map (fun i -> Char.chr (97 + i)) (int_bound 2)) (0 -- 30)) in
  QCheck.Test.make ~name:"sa_static range width = fm count" ~count:150
    QCheck.(pair (make Gen.(list_size (1 -- 5) gen_doc)) (string_of_size Gen.(1 -- 4)))
    (fun (docs_l, p_raw) ->
      QCheck.assume (String.length p_raw > 0);
      let p = String.map (fun c -> Char.chr (97 + (Char.code c mod 3))) p_raw in
      let docs = Array.of_list docs_l in
      let sa = Sa_static.build ~sample:2 docs in
      let fm = Fm_static.build ~sample:2 docs in
      let w = function None -> 0 | Some (a, b) -> b - a in
      w (Sa_static.range sa p) = w (Fm_static.range fm p))

(* --- Csa_static conformance --- *)

let test_csa_static_basic () =
  let docs = [| "banana"; "bandana"; "ananas" |] in
  let idx = Csa_static.build ~sample:3 docs in
  Alcotest.(check int) "doc_count" 3 (Csa_static.doc_count idx);
  List.iter
    (fun p ->
      let expected = naive_search (Array.to_list (Array.mapi (fun i s -> (i, s)) docs)) p in
      match Csa_static.range idx p with
      | None -> check ("none " ^ p) 0 (List.length expected)
      | Some (sp, ep) ->
        check ("width " ^ p) (List.length expected) (ep - sp);
        let got = ref [] in
        for row = sp to ep - 1 do
          got := Csa_static.locate idx row :: !got
        done;
        Alcotest.(check (list (pair int int))) ("locs " ^ p) expected (List.sort compare !got))
    [ "a"; "an"; "ana"; "ban"; "nd"; "s"; "zz"; "banana"; "ananas" ]

let test_csa_static_extract () =
  let idx = Csa_static.build ~sample:4 [| "hello world"; "compressed suffix array" |] in
  Alcotest.(check string) "extract" "world" (Csa_static.extract idx ~doc:0 ~off:6 ~len:5);
  Alcotest.(check string) "extract2" "suffix" (Csa_static.extract idx ~doc:1 ~off:11 ~len:6);
  (* iter_doc_rows covers every suffix exactly once *)
  let rows = ref [] in
  Csa_static.iter_doc_rows idx 0 ~f:(fun r -> rows := r :: !rows);
  check "rows" 12 (List.length (List.sort_uniq compare !rows))

let prop_csa_vs_fm =
  let gen_doc = QCheck.Gen.(string_size ~gen:(map (fun i -> Char.chr (97 + i)) (int_bound 2)) (0 -- 30)) in
  QCheck.Test.make ~name:"csa range width = fm count" ~count:120
    QCheck.(pair (make Gen.(list_size (1 -- 5) gen_doc)) (string_of_size Gen.(1 -- 4)))
    (fun (docs_l, p_raw) ->
      QCheck.assume (String.length p_raw > 0);
      let p = String.map (fun c -> Char.chr (97 + (Char.code c mod 3))) p_raw in
      let docs = Array.of_list docs_l in
      let csa = Csa_static.build ~sample:2 docs in
      let fm = Fm_static.build ~sample:2 docs in
      let w = function None -> 0 | Some (a, b) -> b - a in
      w (Csa_static.range csa p) = w (Fm_static.range fm p))

(* --- Semi_static battery, shared across static indexes --- *)

module SS_fm = Semi_static.Make (Fm_static)
module SS_sa = Semi_static.Make (Sa_static)
module SS_csa = Semi_static.Make (Csa_static)

module type SEMI = sig
  type t
  val build :
    ?tick:(unit -> unit) ->
    sample:int ->
    tau:int ->
    (int * string) array ->
    t
  val search : t -> string -> f:(doc:int -> off:int -> unit) -> unit
  val count : t -> string -> int
  val delete : t -> int -> bool
  val mem : t -> int -> bool
  val needs_purge : t -> bool
  val live_docs : ?tick:(unit -> unit) -> t -> (int * string) list
  val extract : t -> doc:int -> off:int -> len:int -> string option
  val doc_len : t -> int -> int option
end

let semi_static_battery (type a) (module M : SEMI with type t = a) name () =
  let docs = [| (10, "banana"); (20, "bandana"); (30, "ananas"); (40, "band") |] in
  let ss = M.build ~sample:2 ~tau:4 docs in
  let live () = List.filter (fun (d, _) -> M.mem ss d) (Array.to_list docs) in
  let matches p =
    let acc = ref [] in
    M.search ss p ~f:(fun ~doc ~off -> acc := (doc, off) :: !acc);
    List.sort compare !acc
  in
  let verify p = Alcotest.(check (list (pair int int))) (name ^ " " ^ p) (naive_search (live ()) p) (matches p) in
  List.iter verify [ "an"; "ana"; "band"; "na"; "s" ];
  check (name ^ " count an") (List.length (naive_search (live ()) "an")) (M.count ss "an");
  (* delete the middle doc *)
  Alcotest.(check bool) (name ^ " delete") true (M.delete ss 20);
  Alcotest.(check bool) (name ^ " delete twice") false (M.delete ss 20);
  Alcotest.(check bool) (name ^ " mem") false (M.mem ss 20);
  List.iter verify [ "an"; "ana"; "band"; "nd"; "d" ];
  check (name ^ " count after") (List.length (naive_search (live ()) "an")) (M.count ss "an");
  (* extraction respects liveness *)
  Alcotest.(check (option string)) (name ^ " extract live") (Some "anan") (M.extract ss ~doc:30 ~off:0 ~len:4);
  Alcotest.(check (option string)) (name ^ " extract dead") None (M.extract ss ~doc:20 ~off:0 ~len:3);
  (* live_docs returns exactly the live set *)
  Alcotest.(check (list (pair int string))) (name ^ " live_docs") (live ())
    (List.sort compare (M.live_docs ss));
  (* purge threshold: tau=4, deleting enough must trip it *)
  ignore (M.delete ss 10);
  ignore (M.delete ss 30);
  Alcotest.(check bool) (name ^ " needs purge") true (M.needs_purge ss);
  List.iter verify [ "an"; "band" ]

let test_semi_static_fm = semi_static_battery (module SS_fm) "fm"
let test_semi_static_sa = semi_static_battery (module SS_sa) "sa"
let test_semi_static_csa = semi_static_battery (module SS_csa) "csa"

(* The id array is the only id map: documents given in shuffled or
   descending id order are found by id, and [live_docs] lists them in
   ascending id order, before and after random deletes. *)
let semi_static_id_order (type a) (module M : SEMI with type t = a) name () =
  let st = Random.State.make [| 5; 31 |] in
  let text () = String.init (Random.State.int st 12) (fun _ -> Char.chr (97 + Random.State.int st 3)) in
  let wide = [ min_int; -7; -1; 0; 3; 1 lsl 40; max_int ] in
  let run order ids =
    let model = ref (List.sort compare (List.map (fun id -> (id, text ())) ids)) in
    let docs =
      match order with
      | `Descending -> Array.of_list (List.rev !model)
      | `Shuffled ->
        let a = Array.of_list !model in
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let x = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- x
        done;
        a
    in
    let ss = M.build ~sample:2 ~tau:4 docs in
    let probes = List.sort_uniq compare (ids @ [ min_int; max_int; 12345; -12345 ]) in
    let agree step =
      let label what id = Printf.sprintf "%s %s %s id %d" name step what id in
      List.iter
        (fun id ->
          let want = List.assoc_opt id !model in
          Alcotest.(check bool) (label "mem" id) (want <> None) (M.mem ss id);
          Alcotest.(check (option int)) (label "doc_len" id) (Option.map String.length want) (M.doc_len ss id);
          let len = match want with Some s -> String.length s | None -> 0 in
          Alcotest.(check (option string)) (label "extract" id) want (M.extract ss ~doc:id ~off:0 ~len);
          if len > 1 then
            Alcotest.(check (option string)) (label "extract tail" id)
              (Option.map (fun s -> String.sub s 1 (len - 1)) want)
              (M.extract ss ~doc:id ~off:1 ~len:(len - 1)))
        probes;
      Alcotest.(check (list (pair int string))) (name ^ " " ^ step ^ " live_docs ascending") !model (M.live_docs ss)
    in
    agree "built";
    for k = 1 to 2 * List.length ids do
      let id = List.nth probes (Random.State.int st (List.length probes)) in
      Alcotest.(check bool) (Printf.sprintf "%s delete %d" name id) (List.mem_assoc id !model) (M.delete ss id);
      model := List.remove_assoc id !model;
      agree (Printf.sprintf "after %d deletes" k)
    done
  in
  run `Descending (List.init 40 (fun i -> 3 * i));
  run `Descending wide;
  run `Shuffled (List.init 40 (fun i -> (i * 7919) mod 1009 - 500));
  run `Shuffled wide;
  Alcotest.check_raises (name ^ " duplicate id") (Invalid_argument "Semi_static.build: duplicate doc id")
    (fun () -> ignore (M.build ~sample:2 ~tau:4 [| (5, "x"); (max_int, "y"); (-2, "z"); (5, "w") |]))

let test_semi_static_id_order_fm = semi_static_id_order (module SS_fm) "fm"
let test_semi_static_id_order_sa = semi_static_id_order (module SS_sa) "sa"
let test_semi_static_id_order_csa = semi_static_id_order (module SS_csa) "csa"

(* --- Transform1 battery --- *)

module T1 = Transform1.Make (Fm_static)

let t1_config ?(variant = Index_config.Amortized) ~sample ~tau () =
  { Index_config.default with variant; sample; tau }

let rand_doc st =
  let n = Random.State.int st 40 in
  String.init n (fun _ -> Char.chr (97 + Random.State.int st 3))

(* Drive a Transform1 instance and a naive model through a random op
   stream, checking search/count/extract agreement along the way. *)
let churn_battery ?variant ~ops ~seed name () =
  let st = Random.State.make [| seed |] in
  let t = T1.create (t1_config ?variant ~sample:2 ~tau:4 ()) in
  let model : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let patterns = [ "a"; "ab"; "ba"; "abc"; "ca"; "bb" ] in
  let verify step =
    let live = Hashtbl.fold (fun d s acc -> (d, s) :: acc) model [] in
    List.iter
      (fun p ->
        let expected = naive_search live p in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "%s step %d search %s" name step p)
          expected (Epoch_view.matches (T1.view t) p);
        check (Printf.sprintf "%s step %d count %s" name step p) (List.length expected)
          (Epoch_view.count (T1.view t) p))
      patterns
  in
  for step = 1 to ops do
    let roll = Random.State.float st 1.0 in
    if roll < 0.6 || Hashtbl.length model = 0 then begin
      let text = rand_doc st in
      let id = T1.insert t text in
      Hashtbl.replace model id text
    end
    else begin
      (* delete a random live doc *)
      let ids = Hashtbl.fold (fun d _ acc -> d :: acc) model [] in
      let id = List.nth ids (Random.State.int st (List.length ids)) in
      Alcotest.(check bool) (Printf.sprintf "%s delete %d" name id) true (T1.delete t id);
      Hashtbl.remove model id
    end;
    if step mod 7 = 0 then verify step
  done;
  verify ops;
  (* extraction of every live doc *)
  Hashtbl.iter
    (fun id text ->
      Alcotest.(check (option string)) (Printf.sprintf "%s extract %d" name id) (Some text)
        (Epoch_view.extract (T1.view t) ~doc:id ~off:0 ~len:(String.length text)))
    model;
  check (name ^ " doc_count") (Hashtbl.length model) (T1.doc_count t)

let test_t1_geometric = churn_battery ~ops:120 ~seed:3 "t1-geo"
let test_t1_doubling = churn_battery ~variant:Amortized_loglog ~ops:120 ~seed:4 "t1-dbl"

let test_t1_insert_only_growth () =
  let t = T1.create (t1_config ~sample:4 ~tau:8 ()) in
  for i = 0 to 199 do
    ignore (T1.insert t (Printf.sprintf "document-%d-padding-padding" i))
  done;
  check "doc_count" 200 (T1.doc_count t);
  check "count document" 200 (Epoch_view.count (T1.view t) "document");
  (* the census must show a geometric profile: at least two collections *)
  Alcotest.(check bool) "census nonempty" true (List.length (T1.census t) >= 2);
  let stats = T1.stats t in
  Alcotest.(check bool) "merges happened" true (stats.Transform1.merges > 0)

let test_t1_delete_everything () =
  let t = T1.create (t1_config ~sample:2 ~tau:4 ()) in
  let ids = List.init 50 (fun i -> T1.insert t (Printf.sprintf "text number %d" i)) in
  List.iter (fun id -> Alcotest.(check bool) "del" true (T1.delete t id)) ids;
  check "empty" 0 (T1.doc_count t);
  check "no matches" 0 (Epoch_view.count (T1.view t) "text");
  Alcotest.(check bool) "delete missing" false (T1.delete t 999)

let test_t1_large_doc_goes_high () =
  let t = T1.create (t1_config ~sample:4 ~tau:8 ()) in
  ignore (T1.insert t (String.make 5000 'x'));
  check "count x" 5000 (Epoch_view.count (T1.view t) "x");
  ignore (T1.insert t "small");
  check "count small" 1 (Epoch_view.count (T1.view t) "small")

let prop_t1_vs_model =
  QCheck.Test.make ~name:"transform1 agrees with model on random streams" ~count:100
    QCheck.(pair (int_bound 1000) (int_range 20 60))
    (fun (seed, ops) ->
      let st = Random.State.make [| seed; 77 |] in
      let t = T1.create (t1_config ~sample:2 ~tau:4 ()) in
      let model = Hashtbl.create 32 in
      let ok = ref true in
      for _ = 1 to ops do
        if Random.State.float st 1.0 < 0.65 || Hashtbl.length model = 0 then begin
          let text = rand_doc st in
          let id = T1.insert t text in
          Hashtbl.replace model id text
        end
        else begin
          let ids = Hashtbl.fold (fun d _ acc -> d :: acc) model [] in
          let id = List.nth ids (Random.State.int st (List.length ids)) in
          ignore (T1.delete t id);
          Hashtbl.remove model id
        end
      done;
      let live = Hashtbl.fold (fun d s acc -> (d, s) :: acc) model [] in
      List.iter
        (fun p -> if Epoch_view.matches (T1.view t) p <> naive_search live p then ok := false)
        [ "a"; "ab"; "ba"; "ca" ];
      !ok)

(* Regression: counts must already be consistent on the very operation
   that triggered an eager purge, not only once the dust settles. *)
let test_t1_count_right_after_purge () =
  let t = T1.create (t1_config ~sample:2 ~tau:4 ()) in
  let model = Hashtbl.create 64 in
  for i = 0 to 119 do
    let text = Printf.sprintf "purge fodder %d ab" i in
    Hashtbl.replace model (T1.insert t text) text
  done;
  let purges0 = (T1.stats t).Transform1.purges in
  for id = 0 to 89 do
    Alcotest.(check bool) (Printf.sprintf "delete %d" id) true (T1.delete t id);
    Hashtbl.remove model id;
    let live = Hashtbl.fold (fun d s acc -> (d, s) :: acc) model [] in
    List.iter
      (fun p ->
        check (Printf.sprintf "count %s after delete %d" p id)
          (List.length (naive_search live p))
          (Epoch_view.count (T1.view t) p))
      [ "ab"; "fodder"; "purge fodder 9" ]
  done;
  Alcotest.(check bool) "purges actually happened" true ((T1.stats t).Transform1.purges > purges0)

(* --- satellite regressions: overflow-safe purge threshold and the
   uniform query conventions enforced at the Dynamic_index boundary --- *)

(* The n/tau rule must be computed without forming dead * tau: near
   max_int the product wraps negative and a collection that is almost
   entirely dead would never purge. *)
let test_purge_threshold_no_overflow () =
  let chk name expected ~dead_syms ~total_symbols ~tau =
    Alcotest.(check bool) name expected
      (Semi_static.purge_threshold_exceeded ~dead_syms ~total_symbols ~tau)
  in
  (* small-number semantics unchanged: dead * tau > total *)
  chk "empty" false ~dead_syms:0 ~total_symbols:0 ~tau:4;
  chk "below" false ~dead_syms:2 ~total_symbols:8 ~tau:4;
  chk "just above" true ~dead_syms:3 ~total_symbols:8 ~tau:4;
  chk "tau 1: any dead vs total" true ~dead_syms:5 ~total_symbols:4 ~tau:1;
  chk "tau 1: dead = total" false ~dead_syms:4 ~total_symbols:4 ~tau:1;
  (* regression: the old [dead * tau > total] overflows here (the
     product wraps negative) and answers false; mathematically
     dead * tau is about 2 * max_int, far above total *)
  chk "near-max_int dead count" true ~dead_syms:(max_int / 2) ~total_symbols:(max_int - 1) ~tau:4;
  chk "huge tau" true ~dead_syms:(max_int / 3) ~total_symbols:max_int ~tau:4;
  chk "tau itself near max_int" true ~dead_syms:2 ~total_symbols:max_int ~tau:max_int;
  chk "zero dead never purges, huge total" false ~dead_syms:0 ~total_symbols:max_int ~tau:2

let all_pairs =
  List.concat_map
    (fun v -> List.map (fun b -> (v, b)) [ Dynamic_index.Fm; Dynamic_index.Plain_sa; Dynamic_index.Csa ])
    [ Dynamic_index.Amortized; Dynamic_index.Amortized_loglog; Dynamic_index.Worst_case ]

let pair_name (v, b) =
  Printf.sprintf "%s/%s"
    (match v with
    | Dynamic_index.Amortized -> "amortized"
    | Dynamic_index.Amortized_loglog -> "loglog"
    | Dynamic_index.Worst_case -> "worst-case")
    (match b with Dynamic_index.Fm -> "fm" | Dynamic_index.Plain_sa -> "sa" | Dynamic_index.Csa -> "csa")

(* Every variant x backend pair must reject the empty pattern the same
   way; before the sweep some backends answered it (with every position)
   and some raised, so the differential oracle could not even compare. *)
let test_empty_pattern_rejected_everywhere () =
  List.iter
    (fun pair ->
      let v, b = pair in
      let idx = Dynamic_index.create
          ~index:{ Index_config.default with variant = v; backend = b; sample = 2; tau = 4 }
          () in
      Fun.protect ~finally:(fun () -> Dynamic_index.close idx) @@ fun () ->
      ignore (Dynamic_index.insert idx "banana");
      let expect_reject what f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "%s: %s \"\" must raise Invalid_argument" (pair_name pair) what
      in
      expect_reject "search" (fun () -> ignore (Dynamic_index.search idx ""));
      expect_reject "count" (fun () -> ignore (Dynamic_index.count idx ""));
      expect_reject "iter_matches" (fun () ->
          Dynamic_index.iter_matches idx "" ~f:(fun ~doc:_ ~off:_ -> ())))
    all_pairs

(* extract with len = 0 is a liveness probe: Some "" for a live doc
   (whatever the offset), None for dead or never-assigned ids. *)
let test_extract_len0_convention () =
  List.iter
    (fun pair ->
      let v, b = pair in
      let name = pair_name pair in
      let idx = Dynamic_index.create
          ~index:{ Index_config.default with variant = v; backend = b; sample = 2; tau = 4 }
          () in
      Fun.protect ~finally:(fun () -> Dynamic_index.close idx) @@ fun () ->
      let a = Dynamic_index.insert idx "banana" in
      let d = Dynamic_index.insert idx "bandana" in
      Alcotest.(check bool) (name ^ " delete") true (Dynamic_index.delete idx d);
      let chk what expected ~doc ~off =
        Alcotest.(check (option string)) (name ^ " " ^ what) expected
          (Dynamic_index.extract idx ~doc ~off ~len:0)
      in
      chk "live len=0" (Some "") ~doc:a ~off:0;
      chk "live len=0 off out of range" (Some "") ~doc:a ~off:99;
      chk "dead len=0" None ~doc:d ~off:0;
      chk "unassigned len=0" None ~doc:12345 ~off:0)
    all_pairs

(* --- bulk inversion: [docs] equals per-document [extract] --- *)

module type STATIC = sig
  type t
  val build : ?tick:(unit -> unit) -> sample:int -> string array -> t
  val doc_len : t -> int -> int
  val extract : t -> doc:int -> off:int -> len:int -> string
  val docs : ?tick:(unit -> unit) -> t -> string array
end

let statics : (string * (module STATIC)) list =
  [ ("fm", (module Fm_static)); ("sa", (module Sa_static)); ("csa", (module Csa_static)) ]

let per_symbol (type a) (module I : STATIC with type t = a) (idx : a) n =
  Array.init n (fun d -> I.extract idx ~doc:d ~off:0 ~len:(I.doc_len idx d))

(* Collections with no documents, empty and 1-symbol documents, and
   one-letter alphabets (a Huffman tree of one symbol is the degenerate
   [Branch (Sym c, Sym c)]). *)
let gen_collection =
  QCheck.(
    pair (int_range 1 4)
      (pair (int_range 1 5) (list_of_size Gen.(0 -- 12) (string_gen_of_size Gen.(0 -- 9) Gen.(char_range 'a' 'd')))))

let prop_docs_equal_extract =
  QCheck.Test.make ~name:"docs = per-document extract (fm, sa, csa)" ~count:200 gen_collection
    (fun (letters, (sample, docs_l)) ->
      let fold c = Char.chr (97 + ((Char.code c - 97) mod letters)) in
      let docs = Array.of_list (List.map (String.map fold) docs_l) in
      List.for_all
        (fun (_, (module I : STATIC)) ->
          let idx = I.build ~sample docs in
          let bulk = I.docs idx in
          bulk = per_symbol (module I) idx (Array.length docs) && bulk = docs)
        statics)

let test_docs_edge_cases () =
  List.iter
    (fun (name, (module I : STATIC)) ->
      List.iter
        (fun docs ->
          let idx = I.build ~sample:3 docs in
          Alcotest.(check (array string)) (name ^ " docs") docs (I.docs idx);
          Alcotest.(check (array string))
            (name ^ " per-symbol") docs
            (per_symbol (module I) idx (Array.length docs)))
        [ [||]; [| "" |]; [| ""; "" |]; [| "a" |]; [| "z"; ""; "z" |]; [| "aaaa"; "aa" |];
          [| String.make 300 'q' |]; [| "mississippi"; ""; "m"; "issi" |] ])
    statics

(* A component's dump (the read-plane [docs] a view dump inverts)
   drops dead documents and keeps the rest in slot order, with their
   texts; the index itself still decodes every resident document. *)
let dump_case (type a i) name (module S : SEMI with type t = a) (snapshot : a -> Epoch_view.component)
    (index : a -> i) (module I : STATIC with type t = i) =
  let docs = Array.init 40 (fun i -> (100 + i, String.init (i mod 7) (fun k -> "abcab".[(i + k) mod 5]))) in
  let dead = Array.init 40 (fun i -> i mod 3 = 1) in
  let ss = S.build ~sample:4 ~tau:4 docs in
  Array.iteri (fun i d -> if d then ignore (S.delete ss (fst docs.(i)))) dead;
  Alcotest.(check (list (pair int string)))
    (name ^ " dump docs")
    (List.filteri (fun i _ -> not dead.(i)) (Array.to_list docs))
    ((snapshot ss).Epoch_view.docs ());
  Alcotest.(check (array string))
    (name ^ " per-symbol") (Array.map snd docs)
    (per_symbol (module I) (index ss) (Array.length docs))

let test_dump_after_deletes () =
  dump_case "fm" (module SS_fm) SS_fm.snapshot SS_fm.index (module Fm_static);
  dump_case "sa" (module SS_sa) SS_sa.snapshot SS_sa.index (module Sa_static);
  dump_case "csa" (module SS_csa) SS_csa.snapshot SS_csa.index (module Csa_static)

(* [live_docs] decodes the whole component by one bulk inversion, so it
   charges O(1) ticks per decoded symbol, live and dead alike: between
   one and four per symbol (separators and the sentinel included),
   whatever the number of dead documents. *)
let test_live_docs_ticks () =
  let docs = Array.init 30 (fun i -> (i, String.make (i mod 5) 'x')) in
  let decoded = Array.fold_left (fun a (_, s) -> a + String.length s + 1) 0 docs in
  let case (type a) name (module M : SEMI with type t = a) (ss : a) =
    let ticks_of () =
      let ticks = ref 0 in
      let live = M.live_docs ~tick:(fun () -> incr ticks) ss in
      (List.length live, !ticks)
    in
    let _, ticks_all_live = ticks_of () in
    List.iter (fun id -> ignore (M.delete ss id)) [ 0; 3; 7; 8; 22 ];
    let live, ticks = ticks_of () in
    check (name ^ " live docs") 25 live;
    check (name ^ " ticks do not depend on the dead") ticks_all_live ticks;
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d ticks within [%d, %d]" name ticks decoded (4 * (decoded + 1)))
      true
      (ticks >= decoded && ticks <= 4 * (decoded + 1))
  in
  case "fm" (module SS_fm) (SS_fm.build ~sample:4 ~tau:4 docs);
  case "sa" (module SS_sa) (SS_sa.build ~sample:4 ~tau:4 docs);
  case "csa" (module SS_csa) (SS_csa.build ~sample:4 ~tau:4 docs)

(* [space_bits] must match the heap the structure really holds, within
   10 %, from one document to hundreds. *)
let test_space_bits_vs_heap () =
  let st = Random.State.make [| 23 |] in
  let doc () = String.init 100 (fun _ -> Char.chr (97 + Random.State.int st 20)) in
  List.iter
    (fun n ->
      let docs = Array.init n (fun i -> (i, doc ())) in
      let within name reported value =
        let heap = Obj.reachable_words (Obj.repr value) * 64 in
        let ratio = float_of_int reported /. float_of_int heap in
        Alcotest.(check bool)
          (Printf.sprintf "%s, %d docs: space_bits %d vs heap %d bits (%.2f)" name n reported heap ratio)
          true
          (ratio >= 0.9 && ratio <= 1.1)
      in
      let fm = Fm_static.build ~sample:8 (Array.map snd docs) in
      within "fm" (Fm_static.space_bits fm) fm;
      let ss = SS_fm.build ~sample:8 ~tau:8 docs in
      within "semi_static" (SS_fm.space_bits ss) ss;
      Array.iter (fun (id, _) -> if id mod 3 = 1 then ignore (SS_fm.delete ss id)) docs;
      within "semi_static after deletes" (SS_fm.space_bits ss) ss;
      (* ids spanning more than 62 bits keep whole words *)
      let wide = Array.mapi (fun i (_, d) -> ((if i mod 2 = 0 then min_int + i else max_int - i), d)) docs in
      let ss = SS_fm.build ~sample:8 ~tau:8 wide in
      within "semi_static, wide ids" (SS_fm.space_bits ss) ss;
      let r = Dsdg_delbits.Reporter.create_full (100 * n) in
      for i = 0 to (100 * n) - 1 do
        if i mod 5 <> 0 then Dsdg_delbits.Reporter.zero r i
      done;
      within "reporter after zeroing" (Dsdg_delbits.Reporter.space_bits r) r)
    [ 1; 5; 53; 400 ]

(* A component is indexed over the symbols its documents hold, so a
   pattern with a symbol that occurs nowhere in it, or only in its dead
   documents, must count and search as the model says (no occurrence),
   next to patterns whose symbols all occur. *)
let prop_absent_symbols (type a) (module M : SEMI with type t = a) name =
  let gen_doc = QCheck.Gen.(string_size ~gen:(map (fun i -> Char.chr (97 + i)) (int_bound 3)) (0 -- 20)) in
  QCheck.Test.make ~name:(name ^ ": patterns with absent symbols = model") ~count:100
    QCheck.(
      triple
        (make Gen.(list_size (1 -- 8) gen_doc))
        (list_of_size Gen.(1 -- 6) (string_gen_of_size Gen.(1 -- 3) Gen.(map (fun i -> Char.chr (97 + i)) (int_bound 6))))
        (list small_nat))
    (fun (texts, patterns, dels) ->
      let docs = Array.of_list (List.mapi (fun i d -> (3 * i, d)) texts) in
      let ss = M.build ~sample:2 ~tau:4 docs in
      List.iter (fun k -> ignore (M.delete ss (3 * (k mod Array.length docs)))) dels;
      let live = List.filter (fun (id, _) -> M.mem ss id) (Array.to_list docs) in
      List.for_all
        (fun p ->
          let want = naive_search live p in
          let got = ref [] in
          M.search ss p ~f:(fun ~doc ~off -> got := (doc, off) :: !got);
          M.count ss p = List.length want && List.sort compare !got = want)
        patterns)

(* At n_f = 256 the geometric schedule gives C1 and C2 C0's 64-symbol
   floor, so no merge lands in them.  Grow n_f past 2,000 (global
   rebuilds), then insert until C1 and C2 both hold documents, and
   delete everything: each delete must find its document, whichever
   level holds it, and counts must follow the model.  Some delete must
   come out of C1 and some out of C2 (their live size drops by the
   document, with no global rebuild in between). *)
let test_t1_deletes_from_c1_c2 () =
  let t = T1.create (t1_config ~sample:2 ~tau:8 ()) in
  let model = Hashtbl.create 256 in
  let add i = Hashtbl.replace model (T1.insert t (Printf.sprintf "doc %d of level fill %d" i (i * 7))) () in
  let level name =
    match List.find_opt (fun (n, _, _) -> n = name) (T1.census t) with
    | Some (_, live, _) -> live
    | None -> 0
  in
  let i = ref 0 in
  while T1.nf t < 2000 do
    add !i;
    incr i
  done;
  while (level "C1" = 0 || level "C2" = 0) && !i < 2000 do
    add !i;
    incr i
  done;
  Alcotest.(check bool) "C1 and C2 filled" true (level "C1" > 0 && level "C2" > 0);
  Alcotest.(check bool) "C1 above C0's floor" true (T1.level_capacity t 1 > T1.level_capacity t 0);
  let st = Random.State.make [| 11 |] in
  let ids = Array.of_list (Hashtbl.fold (fun id () acc -> id :: acc) model []) in
  Array.sort compare ids;
  for k = Array.length ids - 1 downto 1 do
    let r = Random.State.int st (k + 1) in
    let x = ids.(k) in
    ids.(k) <- ids.(r);
    ids.(r) <- x
  done;
  let from_c1 = ref 0 and from_c2 = ref 0 in
  Array.iter
    (fun id ->
      let c1 = level "C1" and c2 = level "C2" in
      let rebuilds = (T1.stats t).Transform1.global_rebuilds in
      Alcotest.(check bool) (Printf.sprintf "delete %d" id) true (T1.delete t id);
      Hashtbl.remove model id;
      if (T1.stats t).Transform1.global_rebuilds = rebuilds then begin
        if level "C1" < c1 then incr from_c1;
        if level "C2" < c2 then incr from_c2
      end;
      check (Printf.sprintf "docs after delete %d" id) (Hashtbl.length model) (T1.doc_count t);
      check (Printf.sprintf "count \"level fill\" after delete %d" id) (Hashtbl.length model)
        (Epoch_view.count (T1.view t) "level fill"))
    ids;
  Alcotest.(check bool) "deleted from C1" true (!from_c1 > 0);
  Alcotest.(check bool) "deleted from C2" true (!from_c2 > 0);
  Alcotest.(check bool) "delete missing" false (T1.delete t ids.(0))

let qsuite =
  List.map Qc.to_alcotest [ prop_sa_static_vs_fm; prop_csa_vs_fm; prop_t1_vs_model ]

let suite =
  [ ("sa_static basic", `Quick, test_sa_static_basic);
    ("sa_static extract", `Quick, test_sa_static_extract);
    ("semi_static over fm", `Quick, test_semi_static_fm);
    ("semi_static over sa", `Quick, test_semi_static_sa);
    ("semi_static over csa", `Quick, test_semi_static_csa);
    ("csa_static basic", `Quick, test_csa_static_basic);
    ("csa_static extract", `Quick, test_csa_static_extract);
    ("transform1 churn (geometric)", `Quick, test_t1_geometric);
    ("transform1 churn (doubling)", `Quick, test_t1_doubling);
    ("transform1 insert-only growth", `Quick, test_t1_insert_only_growth);
    ("transform1 delete everything", `Quick, test_t1_delete_everything);
    ("transform1 large doc", `Quick, test_t1_large_doc_goes_high);
    ("transform1 count right after purge", `Quick, test_t1_count_right_after_purge);
    ("purge threshold: no overflow", `Quick, test_purge_threshold_no_overflow);
    ("empty pattern rejected everywhere", `Quick, test_empty_pattern_rejected_everywhere);
    ("extract len=0 convention", `Quick, test_extract_len0_convention) ]
  @ qsuite
  @ [ ("docs edge cases", `Quick, test_docs_edge_cases);
      ("dump after deletes", `Quick, test_dump_after_deletes);
      ("live_docs ticks", `Quick, test_live_docs_ticks);
      ("space_bits vs heap", `Quick, test_space_bits_vs_heap);
      Qc.to_alcotest prop_docs_equal_extract;
      ("semi_static id order over fm", `Quick, test_semi_static_id_order_fm);
      ("semi_static id order over sa", `Quick, test_semi_static_id_order_sa);
      ("semi_static id order over csa", `Quick, test_semi_static_id_order_csa);
      ("transform1 deletes from a filled C1 and C2", `Quick, test_t1_deletes_from_c1_c2) ]
  @ List.map Qc.to_alcotest
      [ prop_absent_symbols (module SS_fm) "semi_static fm";
        prop_absent_symbols (module SS_sa) "semi_static sa";
        prop_absent_symbols (module SS_csa) "semi_static csa" ]
