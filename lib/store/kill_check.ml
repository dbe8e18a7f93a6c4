(* Kill-and-recover differential checking; harness shape documented in
   kill_check.mli and DESIGN.md section 10. *)

module Di = Dsdg_core.Dynamic_index
module Trace = Dsdg_check.Trace
module Model = Dsdg_check.Model

type failure = { kf_point : int; kf_detail : string }
type outcome = { kc_points : int; kc_failures : failure list }

let outcome_to_string o =
  if o.kc_failures = [] then Printf.sprintf "kill-check: %d kill point(s), all recovered" o.kc_points
  else
    Printf.sprintf "kill-check: %d kill point(s), %d FAILURE(S)\n%s" o.kc_points
      (List.length o.kc_failures)
      (String.concat "\n"
         (List.map (fun f -> Printf.sprintf "  point %d: %s" f.kf_point f.kf_detail) o.kc_failures))

let rec reset_dir path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> reset_dir (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Drive one op into the durable store + model.  Inserts assert the
   id contract (k-th insert gets id k on both sides); queries exercise
   the index but are not compared here -- the crash-point verification
   is the differential check. *)
let apply d m inserts (op : Trace.op) =
  match op with
  | Trace.Insert s ->
    let a = Durable.insert d s in
    let b = Model.insert m s in
    incr inserts;
    if a <> b then failwith (Printf.sprintf "insert id drift: structure %d, model %d" a b)
  | Trace.Delete id ->
    ignore (Durable.delete d id);
    ignore (Model.delete m id)
  | Trace.Search p -> ( try ignore (Di.search (Durable.index d) p) with Invalid_argument _ -> ())
  | Trace.Count p -> ( try ignore (Di.count (Durable.index d) p) with Invalid_argument _ -> ())
  | Trace.Extract { doc; off; len } -> ignore (Di.extract (Durable.index d) ~doc ~off ~len)
  | Trace.Mem id -> ignore (Di.mem (Durable.index d) id)
  | Trace.Drain -> Di.drain (Durable.index d)

(* Compare the recovered index against the model: census, membership
   and full-text extraction of every live document, death of every
   dead id, and pattern searches sampled from the live texts. *)
let verify ~label idx m ~inserts =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> if List.length !errs < 5 then errs := s :: !errs) fmt in
  let live = Model.live m in
  if Di.doc_count idx <> Model.doc_count m then
    err "%s: doc_count %d, model %d" label (Di.doc_count idx) (Model.doc_count m);
  if Di.total_symbols idx <> Model.total_symbols m then
    err "%s: total_symbols %d, model %d" label (Di.total_symbols idx) (Model.total_symbols m);
  List.iter
    (fun (id, text) ->
      if not (Di.mem idx id) then err "%s: live doc %d not mem" label id
      else
        match Di.extract idx ~doc:id ~off:0 ~len:(String.length text) with
        | Some s when s = text -> ()
        | Some s -> err "%s: doc %d extracts %S, model %S" label id s text
        | None -> err "%s: doc %d extract failed" label id)
    live;
  for id = 0 to inserts - 1 do
    if not (List.mem_assoc id live) && Di.mem idx id then err "%s: dead doc %d resurrected" label id
  done;
  let sampled =
    List.filteri (fun i _ -> i < 6) live
    |> List.filter_map (fun (_, text) ->
           if String.length text >= 2 then Some (String.sub text 0 (min 3 (String.length text)))
           else None)
  in
  let patterns = List.sort_uniq compare ("ab" :: sampled) in
  List.iter
    (fun p ->
      let got = Di.search idx p in
      let want = Model.search m p in
      if got <> want then
        err "%s: search %S reports %d occurrence(s), model %d" label p (List.length got)
          (List.length want))
    patterns;
  List.rev !errs

let default_sweep_config =
  { Durable.sync = Wal.Always; checkpoint_every = 7; checkpoint_jobs = 0; keep_snapshots = 2; wal_archives = 4 }

let sweep ?index ?(config = default_sweep_config) ?(torn = true) ?(stride = 1) ~dir ~ops () =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let stride = max 1 stride in
  let failures = ref [] in
  let points = ref 0 in
  let point k =
    incr points;
    reset_dir dir;
    let d, _ = Durable.open_ ~config ?index ~dir () in
    let m = Model.create () in
    let inserts = ref 0 in
    let fail detail = failures := { kf_point = k; kf_detail = detail } :: !failures in
    match
      for i = 0 to k - 1 do
        apply d m inserts ops.(i)
      done;
      Durable.kill d ~torn;
      let d2, _ = Durable.open_ ~config ?index ~dir () in
      List.iter fail (verify ~label:"after recovery" (Durable.index d2) m ~inserts:!inserts);
      for i = k to n - 1 do
        apply d2 m inserts ops.(i)
      done;
      List.iter fail (verify ~label:"after continuation" (Durable.index d2) m ~inserts:!inserts);
      Durable.close d2
    with
    | () -> ()
    | exception e -> fail (Printf.sprintf "exception: %s" (Printexc.to_string e))
  in
  let k = ref 0 in
  while !k < n do
    point !k;
    k := !k + stride
  done;
  point n;
  reset_dir dir;
  { kc_points = !points; kc_failures = List.rev !failures }
