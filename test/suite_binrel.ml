(* Tests for dsdg_binrel: static deletion-only relation, fully-dynamic
   relation, and the directed graph view -- against naive set models. *)

open Dsdg_binrel

let check = Alcotest.(check int)
let check_l = Alcotest.(check (list int))

(* --- Static_binrel --- *)

let sample_pairs = [| (10, 1); (10, 3); (20, 1); (30, 2); (30, 1); (30, 3); (40, 7) |]

let test_static_queries () =
  let sb = Static_binrel.build ~tau:4 sample_pairs in
  check "live" 7 (Static_binrel.live_pairs sb);
  Alcotest.(check bool) "related 10 1" true (Static_binrel.related sb 10 1);
  Alcotest.(check bool) "related 10 2" false (Static_binrel.related sb 10 2);
  Alcotest.(check bool) "related 99 1" false (Static_binrel.related sb 99 1);
  Alcotest.(check bool) "related 10 99" false (Static_binrel.related sb 10 99);
  let labs o =
    let acc = ref [] in
    Static_binrel.labels_of_object sb o ~f:(fun a -> acc := a :: !acc);
    List.sort compare !acc
  in
  let objs a =
    let acc = ref [] in
    Static_binrel.objects_of_label sb a ~f:(fun o -> acc := o :: !acc);
    List.sort compare !acc
  in
  check_l "labels 10" [ 1; 3 ] (labs 10);
  check_l "labels 30" [ 1; 2; 3 ] (labs 30);
  check_l "labels 40" [ 7 ] (labs 40);
  check_l "labels 99" [] (labs 99);
  check_l "objects 1" [ 10; 20; 30 ] (objs 1);
  check_l "objects 3" [ 10; 30 ] (objs 3);
  check_l "objects 7" [ 40 ] (objs 7);
  check_l "objects 9" [] (objs 9);
  check "count labels 30" 3 (Static_binrel.count_labels_of_object sb 30);
  check "count objects 1" 3 (Static_binrel.count_objects_of_label sb 1)

let test_static_delete () =
  let sb = Static_binrel.build ~tau:4 sample_pairs in
  Alcotest.(check bool) "delete" true (Static_binrel.delete sb 30 1);
  Alcotest.(check bool) "delete twice" false (Static_binrel.delete sb 30 1);
  Alcotest.(check bool) "related gone" false (Static_binrel.related sb 30 1);
  Alcotest.(check bool) "sibling intact" true (Static_binrel.related sb 30 2);
  check "count labels 30" 2 (Static_binrel.count_labels_of_object sb 30);
  check "count objects 1" 2 (Static_binrel.count_objects_of_label sb 1);
  let objs1 = ref [] in
  Static_binrel.objects_of_label sb 1 ~f:(fun o -> objs1 := o :: !objs1);
  check_l "objects 1 after" [ 10; 20 ] (List.sort compare !objs1);
  (* purge accounting *)
  ignore (Static_binrel.delete sb 10 1);
  Alcotest.(check bool) "needs purge at 2/7 dead (tau=4)" true (Static_binrel.needs_purge sb);
  let objs, labs = Static_binrel.live_sorted sb in
  Alcotest.(check (list (pair int int))) "live pairs, sorted"
    [ (10, 3); (20, 1); (30, 2); (30, 3); (40, 7) ]
    (List.combine (Array.to_list objs) (Array.to_list labs))

let test_static_duplicate_rejected () =
  Alcotest.check_raises "dup" (Invalid_argument "Static_binrel.build: duplicate pair") (fun () ->
      ignore (Static_binrel.build ~tau:4 [| (1, 2); (1, 2) |]));
  Alcotest.check_raises "dup among extreme ids, unsorted"
    (Invalid_argument "Static_binrel.build: duplicate pair") (fun () ->
      ignore (Static_binrel.build ~tau:4 [| (max_int, -3); (min_int, 2); (0, 0); (max_int, -3) |]))

(* --- construction: the linear passes against the model and the old
   build --- *)

(* The construction as it was before the linear passes, reduced to the
   space it charges: sorted distinct ids, a binary search per pair, a
   comparison sort of the local pairs, D and Da as two Reporters over
   the n pairs with sigma + 1 label offsets, and t + 1 object offsets
   (no unary degree sequence N: the object offsets answer for it).
   The linear build must charge exactly this figure. *)
let reference_space_bits pairs =
  let open Dsdg_delbits in
  let module Hwt = Dsdg_wavelet.Huffman_wavelet in
  let distinct ids = Array.of_list (List.sort_uniq Int.compare (Array.to_list ids)) in
  let objects = distinct (Array.map fst pairs) and labels = distinct (Array.map snd pairs) in
  let local arr v =
    let lo = ref 0 and hi = ref (Array.length arr) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if arr.(mid) <= v then lo := mid else hi := mid
    done;
    !lo
  in
  let sorted = Array.map (fun (o, a) -> (local objects o, local labels a)) pairs in
  Array.sort compare sorted;
  let n = Array.length sorted and t_objs = Array.length objects in
  let sigma = max 1 (Array.length labels) in
  let s = Hwt.build ~sigma (Array.map snd sorted) in
  Hwt.space_bits s
  + (2 * Reporter.space_bits (Reporter.create_full n))
  + ((sigma + 1) * 63)
  + ((t_objs + Array.length labels + t_objs + 1) * 63)

(* Ids from the whole int range: both extremes and their neighbours,
   full-width random ints of either sign, far and small ids. *)
let wide_id st =
  match Random.State.int st 6 with
  | 0 -> [| min_int; min_int + 1; max_int; max_int - 1; 0; -1 |].(Random.State.int st 6)
  | 1 -> (Random.State.bits st lsl 33) lxor (Random.State.bits st lsl 3) lxor Random.State.bits st
  | 2 -> -1 - Random.State.int st 40
  | 3 -> (if Random.State.bool st then 1 else -1) * ((1 lsl 40) + Random.State.int st 4)
  | _ -> Random.State.int st 40

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Every answer of [sb] against the sorted pair list [model], for every
   id in [ids]. *)
let static_agrees sb model ids =
  let labels o = List.filter_map (fun (o', a) -> if o' = o then Some a else None) model in
  let objects a = List.sort compare (List.filter_map (fun (o, a') -> if a' = a then Some o else None) model) in
  let collect iter x =
    let acc = ref [] in
    iter sb x ~f:(fun y -> acc := y :: !acc);
    List.sort compare !acc
  in
  let objs, labs = Static_binrel.live_sorted sb in
  List.combine (Array.to_list objs) (Array.to_list labs) = model
  && Static_binrel.live_pairs sb = List.length model
  && List.for_all
       (fun x ->
         collect Static_binrel.labels_of_object x = labels x
         && collect Static_binrel.objects_of_label x = objects x
         && Static_binrel.count_labels_of_object sb x = List.length (labels x)
         && Static_binrel.count_objects_of_label sb x = List.length (objects x)
         && List.for_all (fun y -> Static_binrel.related sb x y = List.mem (x, y) model) ids)
       ids

let prop_static_build_wide_ids =
  QCheck.Test.make ~name:"static build over the whole int range = model, before and after deletes"
    ~count:150
    QCheck.(pair (int_bound 100_000) (int_range 0 3))
    (fun (seed, shape) ->
      let st = Random.State.make [| seed; 71 |] in
      let pool = Array.init (2 + Random.State.int st 20) (fun _ -> wide_id st) in
      let pick () = pool.(Random.State.int st (Array.length pool)) in
      let one_obj = pick () and one_lab = pick () in
      let draw () =
        match shape with
        | 1 -> (one_obj, pick ())
        | 2 -> (pick (), one_lab)
        | _ -> (pick (), pick ())
      in
      let drawn = if shape = 3 then [] else List.init (1 + Random.State.int st 200) (fun _ -> draw ()) in
      let model = List.sort_uniq compare drawn in
      let ids = Array.to_list pool @ [ min_int; max_int; 12345 ] in
      let sb = Static_binrel.build ~tau:4 (shuffle st (Array.of_list model)) in
      let built = static_agrees sb model ids in
      let same_space = Static_binrel.space_bits sb = reference_space_bits (Array.of_list model) in
      (* of_pairs drops the duplicates the draw made *)
      let bulk = Dyn_binrel.pairs_list (Dyn_binrel.of_pairs ~tau:4 (drawn @ List.rev drawn)) = model in
      (* random deletes, some of absent pairs *)
      let model = ref model in
      let deletes_agree = ref true in
      for _ = 1 to Random.State.int st 60 do
        let o, a = draw () in
        let want = List.mem (o, a) !model in
        if Static_binrel.delete sb o a <> want then deletes_agree := false;
        model := List.filter (( <> ) (o, a)) !model
      done;
      built && same_space && bulk && !deletes_agree && static_agrees sb !model ids)

(* The layout on a web-crawl graph: the linear build charges exactly the
   old build's space, and decodes back to the pair set. *)
let test_static_webcrawl_layout () =
  let st = Random.State.make [| 1; 7 |] in
  let edges = Dsdg_workload.Graph_gen.web_crawl st ~nodes:4000 ~edges:20_000 in
  let model = List.sort_uniq compare (Array.to_list edges) in
  let pairs = Array.of_list model in
  let sb = Static_binrel.build ~tau:8 (shuffle st (Array.copy pairs)) in
  check "space_bits = reference build" (reference_space_bits pairs) (Static_binrel.space_bits sb);
  let objs, labs = Static_binrel.live_sorted sb in
  Alcotest.(check bool) "bulk decode = pair set" true (Array.combine objs labs = pairs)

(* --- Dyn_binrel under churn --- *)

let naive_labels model o = List.sort compare (List.filter_map (fun (o', a) -> if o' = o then Some a else None) model)
let naive_objects model a = List.sort compare (List.filter_map (fun (o, a') -> if a' = a then Some o else None) model)

let test_dyn_basic () =
  let r = Dyn_binrel.create ~tau:4 () in
  Alcotest.(check bool) "add" true (Dyn_binrel.add r 5 100);
  Alcotest.(check bool) "add dup" false (Dyn_binrel.add r 5 100);
  Alcotest.(check bool) "related" true (Dyn_binrel.related r 5 100);
  Alcotest.(check bool) "remove" true (Dyn_binrel.remove r 5 100);
  Alcotest.(check bool) "remove again" false (Dyn_binrel.remove r 5 100);
  Alcotest.(check bool) "not related" false (Dyn_binrel.related r 5 100);
  check "live" 0 (Dyn_binrel.live_pairs r)

let test_dyn_cascade () =
  (* enough inserts to overflow C0 and cascade into static structures *)
  let r = Dyn_binrel.create ~tau:4 () in
  for o = 0 to 99 do
    for a = 0 to 9 do
      ignore (Dyn_binrel.add r o ((o + a) mod 37))
    done
  done;
  Alcotest.(check bool) "merges happened" true ((Dyn_binrel.stats r).Dyn_binrel.merges > 0);
  check "labels of 50" 10 (Dyn_binrel.count_labels_of_object r 50);
  check_l "labels of 0" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (Dyn_binrel.labels_of_object_list r 0)

let prop_dyn_matches_model =
  QCheck.Test.make ~name:"dyn_binrel matches naive model under churn" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 50 400))
    (fun (seed, ops) ->
      let st = Random.State.make [| seed; 41 |] in
      let r = Dyn_binrel.create ~tau:4 () in
      let model = ref [] in
      for _ = 1 to ops do
        let o = Random.State.int st 20 and a = Random.State.int st 15 in
        if Random.State.float st 1.0 < 0.65 then begin
          let added = Dyn_binrel.add r o a in
          let expected = not (List.mem (o, a) !model) in
          if added <> expected then failwith "add mismatch";
          if added then model := (o, a) :: !model
        end
        else begin
          let removed = Dyn_binrel.remove r o a in
          let expected = List.mem (o, a) !model in
          if removed <> expected then failwith "remove mismatch";
          if removed then model := List.filter (fun p -> p <> (o, a)) !model
        end
      done;
      let ok = ref (Dyn_binrel.live_pairs r = List.length !model) in
      for o = 0 to 19 do
        if Dyn_binrel.labels_of_object_list r o <> naive_labels !model o then ok := false;
        if Dyn_binrel.count_labels_of_object r o <> List.length (naive_labels !model o) then ok := false
      done;
      for a = 0 to 14 do
        if Dyn_binrel.objects_of_label_list r a <> naive_objects !model a then ok := false;
        if Dyn_binrel.count_objects_of_label r a <> List.length (naive_objects !model a) then ok := false
      done;
      !ok)

(* --- Da in label order: every label's range [c_before.(a),
   c_before.(a + 1)) --- *)

(* Both directions and both counts against the pair set [model], for
   every object in [objs] and every label in [labs]. *)
let both_directions_agree ~labels_of ~objects_of ~count_labels ~count_objects model objs labs =
  List.for_all
    (fun o ->
      let want = naive_labels model o in
      labels_of o = want && count_labels o = List.length want)
    objs
  && List.for_all
       (fun a ->
         let want = naive_objects model a in
         objects_of a = want && count_objects a = List.length want)
       labs

(* Labels skewed to both ends: the smallest and the largest label are
   frequent, so deletes keep hitting the first and the last local
   label of every structure. *)
let skewed_label st =
  match Random.State.int st 10 with
  | 0 | 1 -> -1000
  | 2 | 3 -> 1000
  | _ -> Random.State.int st 12

let prop_label_order_da =
  QCheck.Test.make ~name:"label-order Da: both directions and counts = model, static and dynamic"
    ~count:40 (QCheck.int_bound 100_000)
    (fun seed ->
      let st = Random.State.make [| seed; 53 |] in
      let objs = List.init 40 Fun.id and labs = [ -1000; -1; 1000; 1001 ] @ List.init 12 Fun.id in
      let sorted_iter iter x =
        let acc = ref [] in
        iter x ~f:(fun y -> acc := y :: !acc);
        List.sort compare !acc
      in
      (* static: one build, then deletes that empty the end labels first *)
      let model =
        ref (List.sort_uniq compare (List.init 150 (fun _ -> (Random.State.int st 40, skewed_label st))))
      in
      let sb = Static_binrel.build ~tau:4 (Array.of_list !model) in
      let static_ok () =
        both_directions_agree
          ~labels_of:(sorted_iter (Static_binrel.labels_of_object sb))
          ~objects_of:(sorted_iter (Static_binrel.objects_of_label sb))
          ~count_labels:(Static_binrel.count_labels_of_object sb)
          ~count_objects:(Static_binrel.count_objects_of_label sb)
          !model objs labs
        && Static_binrel.live_pairs sb = List.length !model
      in
      let ok = ref (static_ok ()) in
      let end_first = List.filter (fun (_, a) -> a = -1000 || a = 1000) !model in
      List.iter
        (fun (o, a) ->
          if Random.State.int st 3 > 0 then begin
            if Static_binrel.delete sb o a <> List.mem (o, a) !model then ok := false;
            model := List.filter (( <> ) (o, a)) !model;
            if not (static_ok ()) then ok := false
          end)
        (end_first @ List.filter (fun _ -> Random.State.bool st) !model);
      if Static_binrel.delete sb 3 (-1)
         || Static_binrel.dead_pairs sb + List.length !model <> Static_binrel.total_pairs sb
      then ok := false;
      (* dynamic: adds and removes through merges and purges, each
         sub-structure with its own first and last label *)
      let r = Dyn_binrel.create ~tau:2 () in
      let model = ref [] in
      let dyn_ok () =
        both_directions_agree ~labels_of:(Dyn_binrel.labels_of_object_list r)
          ~objects_of:(Dyn_binrel.objects_of_label_list r)
          ~count_labels:(Dyn_binrel.count_labels_of_object r)
          ~count_objects:(Dyn_binrel.count_objects_of_label r)
          !model objs labs
      in
      for step = 1 to 700 do
        (* grow for 400 steps, then shrink *)
        if !model = [] || Random.State.int st 100 < if step <= 400 then 75 else 25 then begin
          let o = Random.State.int st 40 and a = skewed_label st in
          if Dyn_binrel.add r o a <> not (List.mem (o, a) !model) then ok := false;
          model := List.sort_uniq compare ((o, a) :: !model)
        end
        else begin
          let o, a = List.nth !model (Random.State.int st (List.length !model)) in
          if not (Dyn_binrel.remove r o a) then ok := false;
          model := List.filter (( <> ) (o, a)) !model
        end;
        if step mod 50 = 0 && not (dyn_ok ()) then ok := false
      done;
      let s = Dyn_binrel.stats r in
      !ok && dyn_ok () && s.merges > 0 && s.purges > 0)

(* --- Digraph --- *)

let test_graph_basic () =
  let g = Digraph.create ~tau:4 () in
  Alcotest.(check bool) "add" true (Digraph.add_edge g 1 2);
  ignore (Digraph.add_edge g 1 3);
  ignore (Digraph.add_edge g 2 3);
  ignore (Digraph.add_edge g 3 1);
  check "edges" 4 (Digraph.edge_count g);
  check_l "succ 1" [ 2; 3 ] (Digraph.successors g 1);
  check_l "pred 3" [ 1; 2 ] (Digraph.predecessors g 3);
  check "out 1" 2 (Digraph.out_degree g 1);
  check "in 3" 2 (Digraph.in_degree g 3);
  Alcotest.(check bool) "mem" true (Digraph.mem_edge g 2 3);
  Alcotest.(check bool) "not mem" false (Digraph.mem_edge g 3 2);
  ignore (Digraph.remove_edge g 1 3);
  check_l "succ 1 after" [ 2 ] (Digraph.successors g 1);
  check_l "pred 3 after" [ 2 ] (Digraph.predecessors g 3)

let test_graph_self_loops_and_churn () =
  let g = Digraph.create ~tau:4 () in
  for u = 0 to 30 do
    ignore (Digraph.add_edge g u u);
    ignore (Digraph.add_edge g u ((u + 1) mod 31))
  done;
  Alcotest.(check bool) "self loop" true (Digraph.mem_edge g 5 5);
  check "out 5" 2 (Digraph.out_degree g 5);
  ignore (Digraph.remove_edge g 5 5);
  Alcotest.(check bool) "self loop gone" false (Digraph.mem_edge g 5 5);
  check "out 5 after" 1 (Digraph.out_degree g 5)

let prop_graph_vs_model =
  QCheck.Test.make ~name:"digraph matches edge-set model" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 50 300))
    (fun (seed, ops) ->
      let st = Random.State.make [| seed; 43 |] in
      let g = Digraph.create ~tau:4 () in
      let model = Hashtbl.create 64 in
      for _ = 1 to ops do
        let u = Random.State.int st 12 and v = Random.State.int st 12 in
        if Random.State.float st 1.0 < 0.65 then begin
          ignore (Digraph.add_edge g u v);
          Hashtbl.replace model (u, v) ()
        end
        else begin
          ignore (Digraph.remove_edge g u v);
          Hashtbl.remove model (u, v)
        end
      done;
      let ok = ref (Digraph.edge_count g = Hashtbl.length model) in
      for u = 0 to 11 do
        let succ = List.sort compare (Hashtbl.fold (fun (a, b) () acc -> if a = u then b :: acc else acc) model []) in
        let pred = List.sort compare (Hashtbl.fold (fun (a, b) () acc -> if b = u then a :: acc else acc) model []) in
        if Digraph.successors g u <> succ then ok := false;
        if Digraph.predecessors g u <> pred then ok := false;
        if Digraph.out_degree g u <> List.length succ then ok := false;
        if Digraph.in_degree g u <> List.length pred then ok := false
      done;
      !ok)

(* --- random streams against the shared Dsdg_check relation model --- *)

module Rel = Dsdg_check.Model.Rel

let prop_dyn_vs_shared_model =
  QCheck.Test.make ~name:"dyn_binrel matches shared Rel model on random streams" ~count:60
    QCheck.(pair (int_bound 10000) (int_range 80 400))
    (fun (seed, ops) ->
      let st = Random.State.make [| seed; 53 |] in
      let r = Dyn_binrel.create ~tau:4 () in
      let m = Rel.create () in
      let ok = ref true in
      for _ = 1 to ops do
        let o = Random.State.int st 16 and a = Random.State.int st 12 in
        if Random.State.float st 1.0 < 0.6 then begin
          if Dyn_binrel.add r o a <> Rel.add m o a then ok := false
        end
        else if Dyn_binrel.remove r o a <> Rel.remove m o a then ok := false;
        (* interleave queries with the churn, not only at the end *)
        if Random.State.int st 8 = 0 then begin
          let o' = Random.State.int st 16 and a' = Random.State.int st 12 in
          if Dyn_binrel.related r o' a' <> Rel.related m o' a' then ok := false;
          if Dyn_binrel.labels_of_object_list r o' <> Rel.labels_of_object m o' then ok := false;
          if Dyn_binrel.objects_of_label_list r a' <> Rel.objects_of_label m a' then ok := false;
          if Dyn_binrel.count_labels_of_object r o' <> Rel.count_labels_of_object m o' then
            ok := false
        end
      done;
      !ok && Dyn_binrel.live_pairs r = Rel.size m)

let prop_graph_vs_shared_model =
  QCheck.Test.make ~name:"digraph matches shared Rel model on random streams" ~count:60
    QCheck.(pair (int_bound 10000) (int_range 80 400))
    (fun (seed, ops) ->
      let st = Random.State.make [| seed; 59 |] in
      let g = Digraph.create ~tau:4 () in
      let m = Rel.create () in
      let ok = ref true in
      for _ = 1 to ops do
        let u = Random.State.int st 14 and v = Random.State.int st 14 in
        if Random.State.float st 1.0 < 0.6 then begin
          if Digraph.add_edge g u v <> Rel.add m u v then ok := false
        end
        else if Digraph.remove_edge g u v <> Rel.remove m u v then ok := false;
        if Random.State.int st 8 = 0 then begin
          let w = Random.State.int st 14 in
          if Digraph.successors g w <> Rel.labels_of_object m w then ok := false;
          if Digraph.predecessors g w <> Rel.objects_of_label m w then ok := false;
          if Digraph.out_degree g w <> Rel.count_labels_of_object m w then ok := false;
          if Digraph.in_degree g w <> Rel.count_objects_of_label m w then ok := false
        end
      done;
      !ok && Digraph.edge_count g = Rel.size m)

(* --- conformance: the string relation and the k2 comparator vs the
   naive model --- *)

(* One relation's operations as closures, so one test drives both. *)
type rel_ops = {
  name : string;
  add : int -> int -> bool;
  remove : int -> int -> bool;
  related : int -> int -> bool;
  succ : int -> int list;
  pred : int -> int list;
  out_deg : int -> int;
  in_deg : int -> int;
  live : unit -> int;
  pairs : unit -> (int * int) list;
}

let str_ops () =
  let r = Dyn_binrel.create ~tau:4 () in
  { name = "str"; add = Dyn_binrel.add r; remove = Dyn_binrel.remove r;
    related = Dyn_binrel.related r; succ = Dyn_binrel.labels_of_object_list r;
    pred = Dyn_binrel.objects_of_label_list r; out_deg = Dyn_binrel.count_labels_of_object r;
    in_deg = Dyn_binrel.count_objects_of_label r; live = (fun () -> Dyn_binrel.live_pairs r);
    pairs = (fun () -> Dyn_binrel.pairs_list r) }

let k2_ops () =
  let r = K2_relation.create () in
  { name = "k2"; add = K2_relation.add r; remove = K2_relation.remove r;
    related = K2_relation.related r; succ = K2_relation.labels_of_object_list r;
    pred = K2_relation.objects_of_label_list r; out_deg = K2_relation.count_labels_of_object r;
    in_deg = K2_relation.count_objects_of_label r; live = (fun () -> K2_relation.live_pairs r);
    pairs = (fun () -> K2_relation.pairs_list r) }

let each_rel f = List.iter (fun make -> f (make ())) [ str_ops; k2_ops ]

(* A relation rejects a lazy-deletion threshold below 1 when it is
   made, not at the first merge partway through a stream. *)
let test_tau_below_one_rejected () =
  let rejects what f =
    Alcotest.(check bool) (what ^ " raises Invalid_argument") true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "Dyn_binrel.create ~tau:0" (fun () -> ignore (Dyn_binrel.create ~tau:0 ()));
  rejects "Dyn_binrel.of_pairs ~tau:0" (fun () -> ignore (Dyn_binrel.of_pairs ~tau:0 [ (1, 2) ]));
  rejects "Digraph.create ~tau:0" (fun () -> ignore (Digraph.create ~tau:0 ()));
  rejects "Digraph.of_edges ~tau:(-1)" (fun () -> ignore (Digraph.of_edges ~tau:(-1) []));
  rejects "Triple_store.create ~tau:0" (fun () -> ignore (Triple_store.create ~tau:0 ()));
  (* tau = 1 is the smallest legal threshold and survives merges *)
  let g = Digraph.create ~tau:1 () in
  for u = 0 to 99 do
    ignore (Digraph.add_edge g u (u + 1))
  done;
  check "tau=1 edges" 100 (Digraph.edge_count g)

(* k2 quadrant boundaries: coordinates straddling leaf (8) and quadrant
   (powers of two) edges, inserted, queried and removed, against the
   shared model. *)
let test_k2_quadrant_boundaries () =
  let coords = [ 0; 1; 7; 8; 9; 15; 16; 31; 32; 63; 64; 65; 127; 128 ] in
  let r = K2_relation.create () in
  let m = Rel.create () in
  List.iter
    (fun o -> List.iter (fun a -> Alcotest.(check bool) "add agrees"
        (Rel.add m o a) (K2_relation.add r o a)) coords)
    coords;
  check "live" (Rel.size m) (K2_relation.live_pairs r);
  List.iter
    (fun o ->
      check_l (Printf.sprintf "row %d" o) (Rel.labels_of_object m o)
        (K2_relation.labels_of_object_list r o);
      check_l (Printf.sprintf "col %d" o) (Rel.objects_of_label m o)
        (K2_relation.objects_of_label_list r o))
    coords;
  (* remove every pair with o >= 16, re-check rows and pruning *)
  List.iter
    (fun o ->
      List.iter
        (fun a ->
          if o >= 16 then
            Alcotest.(check bool) "remove agrees" (Rel.remove m o a) (K2_relation.remove r o a))
        coords)
    coords;
  check "live after" (Rel.size m) (K2_relation.live_pairs r);
  List.iter
    (fun o ->
      check_l (Printf.sprintf "row %d after" o) (Rel.labels_of_object m o)
        (K2_relation.labels_of_object_list r o))
    coords;
  Alcotest.(check (list (pair int int))) "pair set" (Rel.pairs m) (K2_relation.pairs_list r)

(* node-universe growth: the matrix side quadruples on demand, old
   pairs stay put, and removal prunes the far blocks back out. *)
let test_k2_universe_growth () =
  let r = K2_relation.create () in
  check "initial side" 64 (K2_relation.side r);
  ignore (K2_relation.add r 0 0);
  ignore (K2_relation.add r 63 63);
  check "still 64" 64 (K2_relation.side r);
  ignore (K2_relation.add r 64 0);
  check "quadrupled" 256 (K2_relation.side r);
  Alcotest.(check bool) "old pair intact" true (K2_relation.related r 63 63);
  ignore (K2_relation.add r 5000 3);
  check "grown past 5000" 16384 (K2_relation.side r);
  (* 64 -> 256 earlier, then 256 -> 16384: four quadruplings in total *)
  check "grows counted" 4 (K2_relation.stats r).K2_relation.grows;
  Alcotest.(check bool) "far pair" true (K2_relation.related r 5000 3);
  check_l "col 3" [ 5000 ] (K2_relation.objects_of_label_list r 3);
  check_l "row 5000" [ 3 ] (K2_relation.labels_of_object_list r 5000);
  let bits_with = K2_relation.space_bits r in
  Alcotest.(check bool) "remove far" true (K2_relation.remove r 5000 3);
  Alcotest.(check bool) "far blocks pruned" true (K2_relation.space_bits r < bits_with);
  check "live" 3 (K2_relation.live_pairs r);
  Alcotest.(check (list (pair int int))) "pairs" [ (0, 0); (63, 63); (64, 0) ]
    (K2_relation.pairs_list r);
  Alcotest.check_raises "negative id" (Invalid_argument "K2_relation.add: negative id")
    (fun () -> ignore (K2_relation.add r (-1) 0))

(* one 64x64 block driven through both leaf representations: past the
   sparse->dense flip (335 pairs) and back down through the hysteresis
   band, agreeing with the model throughout. *)
let test_k2_adaptive_leaf () =
  let r = K2_relation.create () in
  let m = Rel.create () in
  let bits_sparse = ref 0 in
  for i = 0 to 19 do
    for j = 0 to 19 do
      if i = 10 && j = 0 then bits_sparse := K2_relation.space_bits r;
      ignore (K2_relation.add r i j);
      ignore (Rel.add m i j)
    done
  done;
  (* 400 pairs in one block: dense bitmap, bounded by the 4096-bit leaf *)
  check "live" 400 (K2_relation.live_pairs r);
  Alcotest.(check bool) "dense leaf stays within bitmap bounds" true
    (K2_relation.space_bits r < 4096 + (8 * 64));
  for i = 0 to 19 do
    check_l (Printf.sprintf "dense row %d" i) (Rel.labels_of_object m i)
      (K2_relation.labels_of_object_list r i);
    check_l (Printf.sprintf "dense col %d" i) (Rel.objects_of_label m i)
      (K2_relation.objects_of_label_list r i)
  done;
  (* drain below the hysteresis floor: back to sparse, still agreeing *)
  for i = 0 to 19 do
    for j = 0 to 19 do
      if (i + j) mod 3 <> 0 then begin
        ignore (K2_relation.remove r i j);
        ignore (Rel.remove m i j)
      end
    done
  done;
  check "live after drain" (Rel.size m) (K2_relation.live_pairs r);
  for i = 0 to 19 do
    check_l (Printf.sprintf "sparse row %d" i) (Rel.labels_of_object m i)
      (K2_relation.labels_of_object_list r i)
  done;
  Alcotest.(check (list (pair int int))) "pair set after drain" (Rel.pairs m)
    (K2_relation.pairs_list r)

(* the same scripted churn through both relations vs the model *)
let test_backend_matrix_churn () =
  each_rel (fun r ->
      let m = Rel.create () in
      let st = Random.State.make [| 7; 31 |] in
      for _ = 1 to 600 do
        let o = Random.State.int st 40 and a = Random.State.int st 40 in
        if Random.State.float st 1.0 < 0.6 then begin
          if r.add o a <> Rel.add m o a then Alcotest.failf "%s: add" r.name
        end
        else if r.remove o a <> Rel.remove m o a then Alcotest.failf "%s: remove" r.name
      done;
      check (r.name ^ " live") (Rel.size m) (r.live ());
      for x = 0 to 39 do
        if r.succ x <> Rel.labels_of_object m x then Alcotest.failf "%s: labels of %d" r.name x;
        if r.pred x <> Rel.objects_of_label m x then Alcotest.failf "%s: objects of %d" r.name x;
        if r.out_deg x <> Rel.count_labels_of_object m x then
          Alcotest.failf "%s: count labels of %d" r.name x
      done;
      Alcotest.(check (list (pair int int))) (r.name ^ " pair set") (Rel.pairs m) (r.pairs ()))

(* snapshot isolation: the pair list captured from a relation is
   immutable data, unaffected by writer churn -- checked from a
   concurrent reader domain while the writer keeps mutating. *)
let test_snapshot_isolation_concurrent () =
  each_rel (fun r ->
      for u = 0 to 19 do
        ignore (r.add u ((u + 3) mod 20))
      done;
      let snapshot = r.pairs () in
      let reader =
        Domain.spawn (fun () ->
            let ok = ref true in
            for _ = 1 to 2000 do
              if snapshot <> List.sort compare snapshot then ok := false;
              if List.length snapshot <> 20 then ok := false
            done;
            !ok)
      in
      for u = 0 to 19 do
        ignore (r.remove u ((u + 3) mod 20));
        ignore (r.add u ((u + 7) mod 20))
      done;
      Alcotest.(check bool) (r.name ^ " reader saw a stable snapshot") true (Domain.join reader);
      Alcotest.(check bool) (r.name ^ " snapshot differs from new state") true
        (snapshot <> r.pairs ()))

(* a Digraph and the k2 comparator fed the same edges agree, and the
   graph's edge set survives the of_edges recovery path *)
let test_digraph_backend_roundtrip () =
  let st = Random.State.make [| 5; 77 |] in
  let edges = Array.init 300 (fun _ -> (Random.State.int st 50, Random.State.int st 50)) in
  let g = Digraph.create () and k = K2_relation.create () in
  Array.iter (fun (u, v) -> ignore (Digraph.add_edge g u v); ignore (K2_relation.add k u v)) edges;
  Alcotest.(check (list (pair int int))) "edge sets agree" (Digraph.edges g)
    (K2_relation.pairs_list k);
  check "counts agree" (Digraph.edge_count g) (K2_relation.live_pairs k);
  let re = Digraph.of_edges (Digraph.edges g) in
  Alcotest.(check (list (pair int int))) "of_edges roundtrip" (Digraph.edges g)
    (Digraph.edges re);
  for u = 0 to 49 do
    check_l (Printf.sprintf "succ %d" u) (K2_relation.labels_of_object_list k u)
      (Digraph.successors g u);
    check_l (Printf.sprintf "pred %d" u) (K2_relation.objects_of_label_list k u)
      (Digraph.predecessors g u);
    check_l (Printf.sprintf "re succ %d" u) (Digraph.successors g u) (Digraph.successors re u)
  done

(* --- bulk builds --- *)

(* Digraph.of_edges, duplicates and self-loops included, against the
   model fed the same pairs one by one. *)
let test_of_edges_matches_model () =
  let st = Random.State.make [| 9; 4 |] in
  let random = List.init 500 (fun _ -> (Random.State.int st 40, Random.State.int st 40)) in
  let cases =
    [ ("empty", []);
      ("self-loops and duplicates", [ (3, 3); (1, 2); (3, 3); (1, 2); (2, 1); (0, 0) ]);
      ("random", random @ List.filteri (fun i _ -> i mod 3 = 0) random) ]
  in
  List.iter
    (fun (name, pairs) ->
      let m = Rel.create () in
      List.iter (fun (u, v) -> ignore (Rel.add m u v)) pairs;
      let g = Digraph.of_edges ~tau:4 pairs in
      Alcotest.(check (list (pair int int))) (name ^ " edges") (Rel.pairs m) (Digraph.edges g);
      check (name ^ " edge count") (Rel.size m) (Digraph.edge_count g);
      for u = 0 to 40 do
        check_l (Printf.sprintf "%s succ %d" name u) (Rel.labels_of_object m u) (Digraph.successors g u);
        check_l (Printf.sprintf "%s pred %d" name u) (Rel.objects_of_label m u)
          (Digraph.predecessors g u);
        check (Printf.sprintf "%s out-degree %d" name u) (Rel.count_labels_of_object m u)
          (Digraph.out_degree g u)
      done;
      (* a bulk build is construction, not a rebuild *)
      let s = Digraph.stats g in
      check (name ^ " merges") 0 s.Dyn_binrel.merges;
      check (name ^ " global rebuilds") 0 s.global_rebuilds)
    cases

(* A bulk-built relation driven by a differential stream that removes
   most of its pairs (purging the top structure, then rebuilding
   globally as the live size halves) while adding and querying. *)
let test_bulk_then_stream () =
  let module Rc = Dsdg_check.Rel_check in
  let st = Random.State.make [| 17; 3 |] in
  let init =
    List.sort_uniq compare (List.init 600 (fun _ -> (Random.State.int st 60, Random.State.int st 60)))
  in
  let ops =
    List.concat
      (List.mapi
         (fun i (o, a) ->
           let snapshot = if i mod 50 = 0 then [ Rc.Rpairs ] else [] in
           if i mod 5 = 4 then [ Rc.Radd (o + 100, a); Rc.Rsucc o ]
           else [ Rc.Rremove (o, a); Rc.Rpred a; Rc.Rrelated (o, a) ] @ snapshot)
         init)
    @ [ Rc.Rpairs ]
  in
  (match Rc.run_ops ~init ops with
  | Ok () -> ()
  | Error f -> Alcotest.failf "step %d on %s: %s" f.Dsdg_check.Runner.f_step f.f_target f.f_message);
  (* the same stream really purges and rebuilds the relation *)
  let r = Dyn_binrel.of_pairs ~tau:4 init in
  List.iter
    (function
      | Rc.Radd (o, a) -> ignore (Dyn_binrel.add r o a)
      | Rc.Rremove (o, a) -> ignore (Dyn_binrel.remove r o a)
      | _ -> ())
    ops;
  let s = Dyn_binrel.stats r in
  Alcotest.(check bool) "purged" true (s.Dyn_binrel.purges > 0);
  Alcotest.(check bool) "rebuilt globally" true (s.Dyn_binrel.global_rebuilds > 0)

(* QCheck: both relations reproduce the model on random streams,
   including far-out ids (k2 growth): the pair set, and for every id the
   stream touched, both neighbour lists, both counts and [related]. *)
let prop_backend_pairset_agreement =
  QCheck.Test.make ~name:"rel backends agree on pair sets under churn" ~count:50
    QCheck.(pair (int_bound 10000) (int_range 60 300))
    (fun (seed, ops) ->
      let st = Random.State.make [| seed; 61 |] in
      let rels = [ str_ops (); k2_ops () ] in
      let m = Rel.create () in
      let touched = Hashtbl.create 32 in
      let ok = ref true in
      let agree f = List.iter (fun r -> if not (f r) then ok := false) rels in
      for _ = 1 to ops do
        let id () =
          if Random.State.int st 30 = 0 then Random.State.int st 500 else Random.State.int st 18
        in
        let o = id () and a = id () in
        Hashtbl.replace touched o ();
        Hashtbl.replace touched a ();
        if Random.State.float st 1.0 < 0.6 then begin
          let want = Rel.add m o a in
          agree (fun r -> r.add o a = want)
        end
        else begin
          let want = Rel.remove m o a in
          agree (fun r -> r.remove o a = want)
        end
      done;
      let pairs = Rel.pairs m in
      agree (fun r -> r.pairs () = pairs && r.live () = Rel.size m);
      let ids = Hashtbl.fold (fun x () acc -> x :: acc) touched [] in
      List.iter
        (fun x ->
          agree (fun r ->
              r.succ x = Rel.labels_of_object m x
              && r.pred x = Rel.objects_of_label m x
              && r.out_deg x = Rel.count_labels_of_object m x
              && r.in_deg x = Rel.count_objects_of_label m x
              && List.for_all (fun y -> r.related x y = Rel.related m x y) ids))
        ids;
      !ok)

(* --- Triple_store --- *)

let test_triples_basic () =
  let ts = Triple_store.create ~tau:4 () in
  Alcotest.(check bool) "add" true (Triple_store.add ts ~s:1 ~p:10 ~o:2);
  Alcotest.(check bool) "dup" false (Triple_store.add ts ~s:1 ~p:10 ~o:2);
  ignore (Triple_store.add ts ~s:1 ~p:10 ~o:3);
  ignore (Triple_store.add ts ~s:1 ~p:11 ~o:2);
  ignore (Triple_store.add ts ~s:4 ~p:10 ~o:2);
  check "count" 4 (Triple_store.triple_count ts);
  Alcotest.(check bool) "mem" true (Triple_store.mem ts ~s:1 ~p:10 ~o:3);
  Alcotest.(check bool) "not mem" false (Triple_store.mem ts ~s:4 ~p:11 ~o:2);
  Alcotest.(check (list (triple int int int))) "subject 1"
    [ (1, 10, 2); (1, 10, 3); (1, 11, 2) ]
    (List.sort compare (Triple_store.triples_with_subject ts 1));
  Alcotest.(check (list (triple int int int))) "object 2"
    [ (1, 10, 2); (1, 11, 2); (4, 10, 2) ]
    (List.sort compare (Triple_store.triples_with_object ts 2));
  Alcotest.(check (list (triple int int int))) "subject 1, pred 10"
    [ (1, 10, 2); (1, 10, 3) ]
    (List.sort compare (Triple_store.triples_with_subject_predicate ts 1 10));
  check "count subject 1" 3 (Triple_store.count_with_subject ts 1);
  check "count object 2" 3 (Triple_store.count_with_object ts 2);
  check "count pred 10" 3 (Triple_store.count_with_predicate ts 10);
  (* removal cleans up predicate links *)
  Alcotest.(check bool) "remove" true (Triple_store.remove ts ~s:1 ~p:11 ~o:2);
  check_l "preds of 1 after" [ 10 ] (Triple_store.predicates_of_subject ts 1);
  Alcotest.(check bool) "remove gone" false (Triple_store.remove ts ~s:1 ~p:11 ~o:2)

let prop_triples_vs_model =
  QCheck.Test.make ~name:"triple store matches naive set model" ~count:25
    QCheck.(pair (int_bound 10000) (int_range 50 250))
    (fun (seed, ops) ->
      let st = Random.State.make [| seed; 47 |] in
      let ts = Triple_store.create ~tau:4 () in
      let model = Hashtbl.create 64 in
      for _ = 1 to ops do
        let s = Random.State.int st 10 and p = Random.State.int st 4 and o = Random.State.int st 10 in
        if Random.State.float st 1.0 < 0.65 then begin
          ignore (Triple_store.add ts ~s ~p ~o);
          Hashtbl.replace model (s, p, o) ()
        end
        else begin
          ignore (Triple_store.remove ts ~s ~p ~o);
          Hashtbl.remove model (s, p, o)
        end
      done;
      let ok = ref (Triple_store.triple_count ts = Hashtbl.length model) in
      for x = 0 to 9 do
        let subj = List.sort compare (Hashtbl.fold (fun (s, p, o) () acc -> if s = x then (s, p, o) :: acc else acc) model []) in
        let obj = List.sort compare (Hashtbl.fold (fun (s, p, o) () acc -> if o = x then (s, p, o) :: acc else acc) model []) in
        if List.sort compare (Triple_store.triples_with_subject ts x) <> subj then ok := false;
        if List.sort compare (Triple_store.triples_with_object ts x) <> obj then ok := false;
        if Triple_store.count_with_subject ts x <> List.length subj then ok := false
      done;
      !ok)

let qsuite =
  List.map Qc.to_alcotest
    [ prop_static_build_wide_ids; prop_dyn_matches_model; prop_graph_vs_model; prop_dyn_vs_shared_model;
      prop_graph_vs_shared_model; prop_backend_pairset_agreement; prop_triples_vs_model;
      prop_label_order_da ]

let suite =
  [ ("static queries", `Quick, test_static_queries);
    ("static delete", `Quick, test_static_delete);
    ("static duplicate rejected", `Quick, test_static_duplicate_rejected);
    ("dyn basic", `Quick, test_dyn_basic);
    ("dyn cascade", `Quick, test_dyn_cascade);
    ("graph basic", `Quick, test_graph_basic);
    ("graph self loops", `Quick, test_graph_self_loops_and_churn);
    ("k2 quadrant boundaries", `Quick, test_k2_quadrant_boundaries);
    ("k2 universe growth", `Quick, test_k2_universe_growth);
    ("k2 adaptive leaf", `Quick, test_k2_adaptive_leaf);
    ("tau < 1 rejected at create", `Quick, test_tau_below_one_rejected);
    ("backend matrix churn", `Quick, test_backend_matrix_churn);
    ("snapshot isolation across backends", `Quick, test_snapshot_isolation_concurrent);
    ("digraph backend roundtrip", `Quick, test_digraph_backend_roundtrip);
    ("of_edges bulk build matches model", `Quick, test_of_edges_matches_model);
    ("bulk build then differential stream", `Quick, test_bulk_then_stream);
    ("triple store basic", `Quick, test_triples_basic);
    ("static web-crawl layout = reference build", `Quick, test_static_webcrawl_layout) ]
  @ qsuite
