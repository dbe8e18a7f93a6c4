(* Tests for Transformation 3 (Appendix A.4): the doubling schedule --
   sub-collection capacities 2^j * (2n / log^2 n), so the number of
   live sub-collections stays O(log log n) while each merge moves a
   document at most O(log log n) times.

   The structural oracle here is the schedule's census bound: at every
   point of an adversarial insert stream, the number of sub-collections
   reported by [census] must stay within the doubling slot budget
   r(nf) = ceil(2 * log2 log2 nf) + 1 -- the measured counterpart of
   the paper's O(log log n) claim, checked the same way
   suite_transform2 pins T2's scheduling invariants. *)

open Dsdg_core

module T1 = Transform1.Make (Fm_static)

(* Transformation 1's functor runs the doubling schedule for the
   [Amortized_loglog] variant. *)
let doubling = { Index_config.default with variant = Amortized_loglog; sample = 2; tau = 4 }

let check = Alcotest.(check int)
let naive_search = Dsdg_check.Model.occurrences

let rand_doc st max_len =
  let n = Random.State.int st max_len in
  String.init n (fun _ -> Char.chr (97 + Random.State.int st 3))

(* The slot budget of the doubling schedule at nf live symbols,
   recomputed here from the paper formula so the test does not trust
   the implementation's own arithmetic. *)
let slot_budget nf =
  let log2 x = log x /. log 2. in
  let lg = max 2. (log2 (float_of_int (max nf 256))) in
  max 2 (int_of_float (ceil (2. *. log2 lg)) + 1)

(* Sub-collections in the census: every entry except the C0 buffer. *)
let sub_collections t =
  List.length (List.filter (fun (name, _, _) -> name <> "C0") (T1.census t))

let test_schedule_name () =
  let t = T1.create doubling in
  Alcotest.(check string) "schedule_name" "doubling" (T1.schedule_name t)

(* Monotone insert stream: the census must respect the O(log log n)
   slot budget at every step, not just at the end. *)
let test_census_bound_throughout () =
  let st = Random.State.make [| 301 |] in
  let t = T1.create doubling in
  let worst = ref 0 in
  for i = 1 to 1200 do
    ignore (T1.insert t (rand_doc st 60));
    if i mod 25 = 0 then begin
      let subs = sub_collections t in
      let budget = slot_budget (T1.nf t) in
      worst := max !worst subs;
      Alcotest.(check bool)
        (Printf.sprintf "step %d: %d sub-collections within budget %d" i subs budget)
        true (subs <= budget)
    end
  done;
  (* the budget must actually have been approached, or the oracle is
     vacuous *)
  Alcotest.(check bool) "census was non-trivial" true (!worst >= 2);
  (* O(log log n) in absolute terms: ~36k symbols fit in 2*log2 log2 n
     + 1 <= 9 slots, far below the log2 n ~ 15 a plain doubling-without
     -relabeling schedule would need *)
  Alcotest.(check bool) "budget is loglog-sized" true (slot_budget (T1.nf t) <= 9)

(* Level capacities must actually double (modulo the 64-symbol floor):
   the defining property of the schedule. *)
let test_level_capacity_doubles () =
  let t = T1.create doubling in
  for i = 0 to 399 do
    ignore (T1.insert t (Printf.sprintf "capacity probe %d padding padding" i))
  done;
  let budget = slot_budget (T1.nf t) in
  for j = 1 to budget - 1 do
    let c = T1.level_capacity t j and c' = T1.level_capacity t (j + 1) in
    if c > 64 then
      Alcotest.(check bool)
        (Printf.sprintf "capacity(%d)=%d doubles to capacity(%d)=%d" j c (j + 1) c')
        true
        (c' >= 2 * c - 2 && c' <= (2 * c) + 2)
  done

(* Churn against the naive model, suite_transform2 style: the doubling
   schedule must not change a single answer. *)
let test_churn_vs_model () =
  let st = Random.State.make [| 302 |] in
  let t = T1.create doubling in
  let model = Hashtbl.create 64 in
  let patterns = [ "a"; "ab"; "ba"; "ca"; "bb" ] in
  let verify step =
    let live = Hashtbl.fold (fun d s acc -> (d, s) :: acc) model [] in
    List.iter
      (fun p ->
        let expected = naive_search live p in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "step %d search %s" step p)
          expected (Epoch_view.matches (T1.view t) p);
        check (Printf.sprintf "step %d count %s" step p) (List.length expected)
          (Epoch_view.count (T1.view t) p))
      patterns
  in
  for step = 1 to 220 do
    let roll = Random.State.float st 1.0 in
    if roll < 0.6 || Hashtbl.length model = 0 then begin
      let text = rand_doc st 40 in
      let id = T1.insert t text in
      Hashtbl.replace model id text
    end
    else begin
      let ids = Hashtbl.fold (fun d _ acc -> d :: acc) model [] in
      let id = List.nth ids (Random.State.int st (List.length ids)) in
      Alcotest.(check bool) (Printf.sprintf "delete %d" id) true (T1.delete t id);
      Hashtbl.remove model id
    end;
    if step mod 11 = 0 then verify step
  done;
  verify 220;
  Hashtbl.iter
    (fun id text ->
      Alcotest.(check (option string)) (Printf.sprintf "extract %d" id) (Some text)
        (Epoch_view.extract (T1.view t) ~doc:id ~off:0 ~len:(String.length text)))
    model;
  check "doc_count" (Hashtbl.length model) (T1.doc_count t)

(* Geometric and doubling schedules fed the same stream must answer
   every query identically -- the schedule is an amortization choice,
   never a semantic one. *)
let test_doubling_vs_geometric_equivalence () =
  let a = T1.create { doubling with variant = Amortized } and b = T1.create doubling in
  let ops = Dsdg_check.Opgen.generate ~seed:303 ~ops:250 () in
  let module Trace = Dsdg_check.Trace in
  let cap f = try Ok (f ()) with Invalid_argument _ -> Error `Rejected in
  List.iteri
    (fun i op ->
      let ctx fmt = Printf.sprintf ("op %d: " ^^ fmt) i in
      (match op with
      | Trace.Insert s -> check (ctx "insert id") (T1.insert a s) (T1.insert b s)
      | Trace.Delete id ->
        Alcotest.(check bool) (ctx "delete %d" id) (T1.delete a id) (T1.delete b id)
      | Trace.Search p ->
        Alcotest.(check bool) (ctx "search %S" p) true
          (cap (fun () -> Epoch_view.matches (T1.view a) p)
          = cap (fun () -> Epoch_view.matches (T1.view b) p))
      | Trace.Count p ->
        Alcotest.(check bool) (ctx "count %S" p) true
          (cap (fun () -> Epoch_view.count (T1.view a) p)
          = cap (fun () -> Epoch_view.count (T1.view b) p))
      | Trace.Extract { doc; off; len } ->
        Alcotest.(check (option string)) (ctx "extract %d %d %d" doc off len)
          (Epoch_view.extract (T1.view a) ~doc ~off ~len) (Epoch_view.extract (T1.view b) ~doc ~off ~len)
      | Trace.Mem id ->
        Alcotest.(check bool) (ctx "mem %d" id)
          (Epoch_view.mem (T1.view a) id) (Epoch_view.mem (T1.view b) id)
      | Trace.Drain -> ());
      check (ctx "doc_count") (T1.doc_count a) (T1.doc_count b);
      check (ctx "total_symbols") (T1.total_symbols a) (T1.total_symbols b))
    ops

(* Merges must move a document O(log log n) times, not O(log n): the
   rebuilt-symbol total under doubling is bounded by nf * budget, the
   per-symbol merge count the schedule exists to deliver. *)
let test_rebuild_work_bounded () =
  let st = Random.State.make [| 304 |] in
  let t = T1.create doubling in
  for _ = 1 to 1500 do
    ignore (T1.insert t (rand_doc st 50))
  done;
  let s = T1.stats t in
  let nf = T1.nf t in
  let bound = nf * (slot_budget nf + 2) in
  Alcotest.(check bool)
    (Printf.sprintf "rebuilt %d <= %d (nf=%d x budget)" s.Transform1.symbols_rebuilt bound nf)
    true
    (s.Transform1.symbols_rebuilt <= bound)

let suite =
  [ ("schedule name", `Quick, test_schedule_name);
    ("census within the loglog slot budget throughout", `Quick, test_census_bound_throughout);
    ("level capacities double", `Quick, test_level_capacity_doubles);
    ("churn agrees with the model", `Quick, test_churn_vs_model);
    ("doubling = geometric on every answer", `Quick, test_doubling_vs_geometric_equivalence);
    ("rebuild work bounded by nf * loglog", `Quick, test_rebuild_work_bounded) ]
