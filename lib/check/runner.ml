(* The differential runner, shrinker, verifier and kill sweep; see
   runner.mli. *)

open Dsdg_core

type target = {
  tg_name : string;
  tg_variant : Dynamic_index.variant;
  tg_backend : Dynamic_index.backend;
}

let select_targets ?(variant = "all") ?(backend = "all") () =
  let pick what name choices =
    if name = "all" then choices
    else
      match List.filter (fun (n, _) -> n = name) choices with
      | [] -> invalid_arg (Printf.sprintf "unknown %s: %s" what name)
      | l -> l
  in
  List.concat_map
    (fun (vn, v) ->
      List.map
        (fun (bn, b) -> { tg_name = vn ^ "/" ^ bn; tg_variant = v; tg_backend = b })
        (pick "backend" backend Index_config.backends))
    (pick "variant" variant Index_config.variants)

let all_targets = select_targets ()
let target_index tg (index : Index_config.t) =
  { index with variant = tg.tg_variant; backend = tg.tg_backend }

(* Small s and tau make every sampled-locate and purge path fire on
   short streams. *)
let fuzz_index = { Index_config.default with sample = 2; tau = 4 }

let subjects ?(index = fuzz_index) targets =
  List.map
    (fun tg () ->
      Subject.of_index ~name:tg.tg_name (Dynamic_index.create ~index:(target_index tg index) ()))
    targets

type 'op failure = {
  f_step : int;
  f_target : string;
  f_subject : int;
  f_op : 'op;
  f_message : string;
  f_events : string list;
}

(* --- applying and comparing --- *)

(* Bounded pretty-printers for disagreement messages. *)
let pp_hits hits =
  let n = List.length hits in
  let shown = List.filteri (fun i _ -> i < 8) hits in
  let body = String.concat "; " (List.map (fun (d, o) -> Printf.sprintf "(%d,%d)" d o) shown) in
  if n > 8 then Printf.sprintf "[%s; ... %d total]" body n else Printf.sprintf "[%s]" body

let pp_str_opt = function
  | None -> "None"
  | Some s ->
    if String.length s > 24 then Printf.sprintf "Some %S..." (String.sub s 0 24) else Printf.sprintf "Some %S" s

(* Queries and the model must agree on outcomes including the uniform
   empty-pattern rejection, so both sides run through [Ok]/[`Rejected]
   capture: a structure that *answers* the empty pattern (or rejects a
   legitimate one) disagrees with the model. *)
let capture f = try Ok (f ()) with Invalid_argument _ -> Error `Rejected

let pp_outcome pp = function
  | Ok v -> pp v
  | Error `Rejected -> "Invalid_argument"

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt

(* Move the model by [op] and return the check each subject's answer
   must pass: the model moves once, every subject is held to it. *)
let expect model op : Subject.t -> unit =
  match op with
  | Trace.Insert text ->
    let want = Model.insert model text in
    fun s ->
      let got = Subject.insert s text in
      if got <> want then mismatch "insert returned id %d, model %d" got want
  | Trace.Delete id ->
    let want = Model.delete model id in
    fun s ->
      let got = Subject.delete s id in
      if got <> want then mismatch "delete %d returned %b, model %b" id got want
  | Trace.Search p ->
    let want = capture (fun () -> Model.search model p) in
    fun s ->
      let got = capture (fun () -> s.search p) in
      if got <> want then
        mismatch "search %S -> %s, model %s" p (pp_outcome pp_hits got) (pp_outcome pp_hits want)
  | Trace.Count p ->
    let want = capture (fun () -> Model.count model p) in
    fun s ->
      let got = capture (fun () -> s.count p) in
      if got <> want then
        mismatch "count %S -> %s, model %s" p (pp_outcome string_of_int got)
          (pp_outcome string_of_int want)
  | Trace.Extract { doc; off; len } ->
    let want = Model.extract model ~doc ~off ~len in
    fun s ->
      let got = s.extract ~doc ~off ~len in
      if got <> want then
        mismatch "extract %d %d %d -> %s, model %s" doc off len (pp_str_opt got) (pp_str_opt want)
  | Trace.Mem id ->
    let want = Model.mem model id in
    fun s ->
      let got = s.mem id in
      if got <> want then mismatch "mem %d -> %b, model %b" id got want
  | Trace.Drain ->
    (* a random forced-completion point: nothing to compare, but every
       post-op check must still hold *)
    fun s -> s.drain ()

(* After every op: size accounting against the model, then the
   subject's own invariants. *)
let census model (s : Subject.t) =
  let dc = s.doc_count () and want = Model.doc_count model in
  if dc <> want then mismatch "doc_count %d, model %d" dc want;
  let ts = s.total_symbols () and want = Model.total_symbols model in
  if ts <> want then mismatch "total_symbols %d, model %d" ts want;
  match s.check () with [] -> () | vs -> mismatch "%s" (String.concat " | " vs)

let guard op f =
  try
    f ();
    Ok ()
  with
  | Mismatch m -> Error m
  | exn -> Error (Printf.sprintf "%s raised %s" (Trace.op_to_string op) (Printexc.to_string exn))

let apply model s op =
  let answer = expect model op in
  guard op (fun () ->
      answer s;
      census model s)

let run_trace factories ops =
  let model = Model.create () in
  let subjects = List.mapi (fun i mk -> (i, mk ())) factories in
  (* pooled indexes own worker domains; leak none, whatever the verdict *)
  Fun.protect ~finally:(fun () -> List.iter (fun (_, (s : Subject.t)) -> s.close ()) subjects)
  @@ fun () ->
  let exception Failed of Trace.op failure in
  try
    List.iteri
      (fun step op ->
        let on f (i, (s : Subject.t)) =
          match guard op (fun () -> f s) with
          | Ok () -> ()
          | Error m ->
            raise
              (Failed
                 { f_step = step + 1; f_target = s.name; f_subject = i; f_op = op; f_message = m;
                   f_events = s.events () })
        in
        List.iter (on (expect model op)) subjects;
        List.iter (on (census model)) subjects)
      ops;
    Ok ()
  with Failed f -> Error f

(* --- shrinking: ddmin-style chunk removal, then op simplification --- *)

let simplify = function
  | Trace.Insert s when String.length s > 0 -> Some (Trace.Insert (String.sub s 0 (String.length s / 2)))
  | Trace.Search p when String.length p > 1 -> Some (Trace.Search (String.sub p 0 (String.length p / 2)))
  | Trace.Count p when String.length p > 1 -> Some (Trace.Count (String.sub p 0 (String.length p / 2)))
  | Trace.Extract { doc; off; len } when len > 0 -> Some (Trace.Extract { doc; off; len = len / 2 })
  | _ -> None

let shrink_ops ~fails ~simplify ?(max_runs = 500) ops =
  let runs = ref 0 in
  let fails candidate =
    !runs < max_runs
    && begin
         incr runs;
         fails candidate
       end
  in
  let current = ref (Array.of_list ops) in
  (* chunk-removal pass at a given granularity *)
  let removal_pass size =
    let i = ref 0 in
    while !i < Array.length !current do
      let arr = !current in
      let n = Array.length arr in
      let hi = min n (!i + size) in
      let candidate = Array.append (Array.sub arr 0 !i) (Array.sub arr hi (n - hi)) in
      if Array.length candidate < n && fails (Array.to_list candidate) then current := candidate
      else i := !i + size
    done
  in
  let size = ref (max 1 (Array.length !current / 2)) in
  while !size >= 1 do
    removal_pass !size;
    size := (if !size = 1 then 0 else !size / 2)
  done;
  (* per-op simplification while the trace still fails *)
  let improved = ref true in
  while !improved && !runs < max_runs do
    improved := false;
    Array.iteri
      (fun i op ->
        match simplify op with
        | None -> ()
        | Some op' ->
          let arr = Array.copy !current in
          arr.(i) <- op';
          if fails (Array.to_list arr) then begin
            current := arr;
            improved := true
          end)
      (Array.copy !current)
  done;
  Array.to_list !current

type 'op outcome =
  | Pass
  | Fail of { failure : 'op failure; trace : 'op list; shrunk : 'op list }

let drive ~run ~simplify subjects trace =
  match run subjects trace with
  | Ok () -> Pass
  | Error f ->
    (* everything after the failing op is noise; shrink the prefix, and
       only against the subject that disagreed *)
    let culprit = match List.nth_opt subjects f.f_subject with Some s -> [ s ] | None -> subjects in
    let prefix = List.filteri (fun i _ -> i < f.f_step) trace in
    let shrunk = shrink_ops ~simplify prefix ~fails:(fun c -> Result.is_error (run culprit c)) in
    let failure = match run culprit shrunk with Error f' -> f' | Ok () -> f in
    Fail { failure; trace; shrunk }

let check subjects trace = drive ~run:run_trace ~simplify subjects trace

let run_stream ?profile ~seed ~ops subjects =
  check subjects (Opgen.generate ?profile ~seed ~ops ())

let report ?seed ~show ~failure ~shrunk () =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match seed with
  | Some s -> add "differential check FAILED (seed %d)\n" s
  | None -> add "differential check FAILED\n");
  add "target : %s\n" failure.f_target;
  add "at op  : #%d  %s\n" failure.f_step (show failure.f_op);
  add "because: %s\n" failure.f_message;
  add "minimal trace (%d ops):\n" (List.length shrunk);
  List.iteri (fun i op -> add "%4d  %s\n" (i + 1) (show op)) shrunk;
  (match failure.f_events with
  | [] -> ()
  | events ->
    add "recent structural events (newest first):\n";
    List.iteri (fun i e -> if i < 12 then add "  %s\n" e) events);
  Buffer.contents buf

(* --- recovered state --- *)

let verify ~label (s : Subject.t) model =
  let errs = ref [] in
  let err fmt =
    Printf.ksprintf
      (fun m -> if List.length !errs < 5 then errs := Printf.sprintf "%s: %s" label m :: !errs)
      fmt
  in
  let dc = s.doc_count () and want = Model.doc_count model in
  if dc <> want then err "doc_count %d, model %d" dc want;
  let ts = s.total_symbols () and want = Model.total_symbols model in
  if ts <> want then err "total_symbols %d, model %d" ts want;
  List.iter (err "%s") (s.check ());
  (* every id ever assigned and two past it: a dead id must stay dead
     and an unassigned one must not appear *)
  for id = 0 to Model.inserted model + 2 do
    let want = Model.mem model id in
    if s.mem id <> want then err "mem %d -> %b, model %b" id (not want) want;
    let got = s.extract ~doc:id ~off:0 ~len:3
    and want = Model.extract model ~doc:id ~off:0 ~len:3 in
    if got <> want then err "extract %d 0 3 -> %s, model %s" id (pp_str_opt got) (pp_str_opt want)
  done;
  let live = Model.live model in
  List.iter
    (fun (id, text) ->
      let got = s.extract ~doc:id ~off:0 ~len:(String.length text) in
      if got <> Some text then err "doc %d extracts %s, model %S" id (pp_str_opt got) text)
    live;
  (* searches sampled from live texts: the first 8 that are long enough,
     and every 7th live document *)
  let long = ref 0 in
  let sampled =
    List.filteri
      (fun i (_, text) ->
        String.length text >= 2
        && begin
             incr long;
             !long <= 8 || i mod 7 = 0
           end)
      live
    |> List.map (fun (_, text) -> String.sub text 0 (min 3 (String.length text)))
  in
  List.iter
    (fun p ->
      let got = s.search p and want = Model.search model p in
      if got <> want then err "search %S -> %s, model %s" p (pp_hits got) (pp_hits want);
      let got = s.count p and want = Model.count model p in
      if got <> want then err "count %S -> %d, model %d" p got want)
    (List.sort_uniq compare ("ab" :: "a" :: sampled));
  List.rev !errs

(* --- kill sweeps --- *)

type 'h crash = {
  dir : string;
  open_ : unit -> 'h * Subject.t;
  kill : 'h -> unit;
  reopen : 'h -> Subject.t;
}

type kill_failure = { kf_point : int; kf_detail : string }
type kill_outcome = { kc_points : int; kc_failures : kill_failure list }

let kill_summary o =
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
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let sweep ?(stride = 1) crash ops =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let failures = ref [] and points = ref 0 in
  (* kill point [k]: crash after the first [k] ops *)
  let point k =
    incr points;
    let fail detail = failures := { kf_point = k; kf_detail = detail } :: !failures in
    let run model s lo hi =
      for i = lo to hi - 1 do
        match apply model s ops.(i) with
        | Ok () -> ()
        | Error m ->
          failwith (Printf.sprintf "op #%d %s: %s" (i + 1) (Trace.op_to_string ops.(i)) m)
      done
    in
    reset_dir crash.dir;
    let model = Model.create () in
    match
      let h, (s : Subject.t) = crash.open_ () in
      (try run model s 0 k
       with e ->
         (try s.close () with _ -> ());
         raise e);
      crash.kill h;
      let s = crash.reopen h in
      Fun.protect ~finally:s.close @@ fun () ->
      List.iter fail (verify ~label:"after recovery" s model);
      run model s k n;
      List.iter fail (verify ~label:"after continuation" s model)
    with
    | () -> ()
    | exception Failure m -> fail m
    | exception e -> fail (Printf.sprintf "exception: %s" (Printexc.to_string e))
  in
  let k = ref 0 in
  while !k < n do
    point !k;
    k := !k + max 1 stride
  done;
  point n;
  reset_dir crash.dir;
  { kc_points = !points; kc_failures = List.rev !failures }
