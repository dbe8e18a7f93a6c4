(* Differential runner + delta-debugging shrinker; see runner.mli. *)

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

type config = { index : Index_config.t; check_invariants : bool }

(* Small s and tau make every sampled-locate and purge path fire on
   short streams. *)
let default_config =
  { index = { Index_config.default with sample = 2; tau = 4 }; check_invariants = true }

type failure = {
  f_step : int;
  f_target : string;
  f_op : Trace.op;
  f_message : string;
  f_events : string list;
}

exception Failed of failure

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
   legitimate one) disagrees with the model and fails the trace. *)
let capture f = try Ok (f ()) with Invalid_argument _ -> Error `Rejected

let pp_outcome pp = function
  | Ok v -> pp v
  | Error `Rejected -> "Invalid_argument"

let run_trace ?(config = default_config) ~targets ops =
  let model = Model.create () in
  let insts =
    List.map
      (fun tg ->
        ( tg,
          Dynamic_index.create
            ~index:(target_index tg config.index)
            (),
          Oracle.create () ))
      targets
  in
  (* With a reader pool, queries run on reader domains against the
     latest published view: the read plane itself is under test, so a
     stale or incomplete epoch publication (e.g. the planted
     [`Stale_epoch] fault) becomes a model disagreement even though the
     write plane stays correct. *)
  let q_search idx p =
    if config.index.readers > 0 then Dynamic_index.query idx (fun v -> Dynamic_index.view_search v p)
    else Dynamic_index.search idx p
  in
  let q_count idx p =
    if config.index.readers > 0 then Dynamic_index.query idx (fun v -> Dynamic_index.view_count v p)
    else Dynamic_index.count idx p
  in
  let q_extract idx ~doc ~off ~len =
    if config.index.readers > 0 then
      Dynamic_index.query idx (fun v -> Dynamic_index.view_extract v ~doc ~off ~len)
    else Dynamic_index.extract idx ~doc ~off ~len
  in
  let q_mem idx id =
    if config.index.readers > 0 then Dynamic_index.query idx (fun v -> Dynamic_index.view_mem v id)
    else Dynamic_index.mem idx id
  in
  (* pooled indexes own worker domains; leak none, whatever the verdict *)
  Fun.protect ~finally:(fun () -> List.iter (fun (_, idx, _) -> Dynamic_index.close idx) insts)
  @@ fun () ->
  let step = ref 0 in
  try
    List.iter
      (fun op ->
        incr step;
        let fail_on idx name fmt =
          Printf.ksprintf
            (fun m ->
              raise
                (Failed
                   { f_step = !step; f_target = name; f_op = op; f_message = m;
                     f_events = Dynamic_index.events idx }))
            fmt
        in
        (* the model moves first; each structure must agree with it (and
           therefore with every other structure) *)
        (match op with
        | Trace.Insert text ->
          let mid = Model.insert model text in
          List.iter
            (fun (tg, idx, _) ->
              let id =
                try Dynamic_index.insert idx text
                with exn -> fail_on idx tg.tg_name "insert raised %s" (Printexc.to_string exn)
              in
              if id <> mid then fail_on idx tg.tg_name "insert returned id %d, model %d" id mid)
            insts
        | Trace.Delete id ->
          let expected = Model.delete model id in
          List.iter
            (fun (tg, idx, _) ->
              let got =
                try Dynamic_index.delete idx id
                with exn -> fail_on idx tg.tg_name "delete %d raised %s" id (Printexc.to_string exn)
              in
              if got <> expected then
                fail_on idx tg.tg_name "delete %d returned %b, model %b" id got expected)
            insts
        | Trace.Search p ->
          let expected = capture (fun () -> Model.search model p) in
          List.iter
            (fun (tg, idx, _) ->
              let got =
                try Ok (q_search idx p) with
                | Invalid_argument _ -> Error `Rejected
                | exn -> fail_on idx tg.tg_name "search %S raised %s" p (Printexc.to_string exn)
              in
              if got <> expected then
                fail_on idx tg.tg_name "search %S -> %s, model %s" p (pp_outcome pp_hits got)
                  (pp_outcome pp_hits expected))
            insts
        | Trace.Count p ->
          let expected = capture (fun () -> Model.count model p) in
          List.iter
            (fun (tg, idx, _) ->
              let got =
                try Ok (q_count idx p) with
                | Invalid_argument _ -> Error `Rejected
                | exn -> fail_on idx tg.tg_name "count %S raised %s" p (Printexc.to_string exn)
              in
              if got <> expected then
                fail_on idx tg.tg_name "count %S -> %s, model %s" p
                  (pp_outcome string_of_int got) (pp_outcome string_of_int expected))
            insts
        | Trace.Extract { doc; off; len } ->
          let expected = Model.extract model ~doc ~off ~len in
          List.iter
            (fun (tg, idx, _) ->
              let got =
                try q_extract idx ~doc ~off ~len
                with exn ->
                  fail_on idx tg.tg_name "extract %d %d %d raised %s" doc off len
                    (Printexc.to_string exn)
              in
              if got <> expected then
                fail_on idx tg.tg_name "extract %d %d %d -> %s, model %s" doc off len (pp_str_opt got)
                  (pp_str_opt expected))
            insts
        | Trace.Mem id ->
          let expected = Model.mem model id in
          List.iter
            (fun (tg, idx, _) ->
              let got =
                try q_mem idx id
                with exn -> fail_on idx tg.tg_name "mem %d raised %s" id (Printexc.to_string exn)
              in
              if got <> expected then fail_on idx tg.tg_name "mem %d -> %b, model %b" id got expected)
            insts
        | Trace.Drain ->
          (* a random forced-completion point; the model has nothing to
             do, but every post-op equivalence below must still hold *)
          List.iter
            (fun (tg, idx, _) ->
              try Dynamic_index.drain idx
              with exn -> fail_on idx tg.tg_name "drain raised %s" (Printexc.to_string exn))
            insts);
        (* after every op: size accounting vs the model, then the paper
           invariants *)
        List.iter
          (fun (tg, idx, orc) ->
            let dc = Dynamic_index.doc_count idx and mdc = Model.doc_count model in
            if dc <> mdc then fail_on idx tg.tg_name "doc_count %d, model %d" dc mdc;
            let ts = Dynamic_index.total_symbols idx and mts = Model.total_symbols model in
            if ts <> mts then fail_on idx tg.tg_name "total_symbols %d, model %d" ts mts;
            if config.index.readers > 0 then begin
              (* the published view must agree with the write plane the
                 moment the writer is quiescent *)
              let vdc, vts =
                Dynamic_index.query idx (fun v ->
                    (Dynamic_index.view_doc_count v, Dynamic_index.view_total_symbols v))
              in
              if vdc <> mdc then fail_on idx tg.tg_name "view doc_count %d, model %d" vdc mdc;
              if vts <> mts then
                fail_on idx tg.tg_name "view total_symbols %d, model %d" vts mts
            end;
            if config.check_invariants then
              match Oracle.check orc idx with
              | [] -> ()
              | vs -> fail_on idx tg.tg_name "invariant violation: %s" (String.concat " | " vs))
          insts)
      ops;
    Ok ()
  with Failed f -> Error f

(* --- shrinking: ddmin-style chunk removal, then op simplification --- *)

(* The generic delta-debugger: chunk removal then per-op payload
   simplification against an arbitrary "still fails" predicate, so any
   harness that can re-run a trace (the variant matrix here, the shard
   matrix in [Dsdg_shard.Shard_check], ...) shrinks the same way. *)
let shrink_ops ~fails ?(max_runs = 500) ops =
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
  (* per-op simplification: halve payloads while the trace still fails *)
  let simplify = function
    | Trace.Insert s when String.length s > 0 -> Some (Trace.Insert (String.sub s 0 (String.length s / 2)))
    | Trace.Search p when String.length p > 1 -> Some (Trace.Search (String.sub p 0 (String.length p / 2)))
    | Trace.Count p when String.length p > 1 -> Some (Trace.Count (String.sub p 0 (String.length p / 2)))
    | Trace.Extract { doc; off; len } when len > 0 -> Some (Trace.Extract { doc; off; len = len / 2 })
    | _ -> None
  in
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

let shrink ?(config = default_config) ?(max_runs = 500) ~targets ops =
  shrink_ops ~max_runs ops ~fails:(fun candidate ->
      match run_trace ~config ~targets candidate with Error _ -> true | Ok () -> false)

type stream_outcome =
  | Pass
  | Fail of { failure : failure; trace : Trace.op list; shrunk : Trace.op list }

let run_stream ?(config = default_config) ?profile ?(shrink_budget = 500) ~targets ~seed ~ops () =
  let trace = Opgen.generate ?profile ~seed ~ops () in
  match run_trace ~config ~targets trace with
  | Ok () -> Pass
  | Error f ->
    (* everything after the failing op is noise; shrink the prefix, and
       only against the structure that disagreed *)
    let prefix = List.filteri (fun i _ -> i < f.f_step) trace in
    let shrink_targets =
      match List.find_opt (fun tg -> tg.tg_name = f.f_target) targets with
      | Some tg -> [ tg ]
      | None -> targets
    in
    let shrunk = shrink ~config ~max_runs:shrink_budget ~targets:shrink_targets prefix in
    let failure =
      match run_trace ~config ~targets:shrink_targets shrunk with Error f' -> f' | Ok () -> f
    in
    Fail { failure; trace; shrunk }

let report ?seed ~failure ~shrunk () =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match seed with
  | Some s -> add "differential check FAILED (seed %d)\n" s
  | None -> add "differential check FAILED\n");
  add "target : %s\n" failure.f_target;
  add "at op  : #%d  %s\n" failure.f_step (Trace.op_to_string failure.f_op);
  add "because: %s\n" failure.f_message;
  add "minimal trace (%d ops):\n%s" (List.length shrunk) (Trace.render shrunk);
  (match failure.f_events with
  | [] -> ()
  | events ->
    add "recent structural events (newest first):\n";
    List.iteri (fun i e -> if i < 12 then add "  %s\n" e) events);
  Buffer.contents buf
