(* Shard-aware differential checking; see shard_check.mli. *)

module Di = Dsdg_core.Dynamic_index
module Trace = Dsdg_check.Trace
module Model = Dsdg_check.Model
module Opgen = Dsdg_check.Opgen
module Runner = Dsdg_check.Runner
module Durable = Dsdg_store.Durable
module Kill_check = Dsdg_store.Kill_check
module S = Sharded_index

type config = { sc_index : Dsdg_core.Index_config.t; sc_shard_counts : int list }

let default_config =
  {
    sc_index = { Runner.default_config.index with variant = Di.Amortized };
    sc_shard_counts = [ 1; 2; 4 ];
  }

type failure = { sf_step : int; sf_shards : int; sf_op : Trace.op; sf_message : string }

exception Failed of failure

let capture f = try Ok (f ()) with Invalid_argument _ -> Error `Rejected

let pp_hits hits =
  let n = List.length hits in
  let shown = List.filteri (fun i _ -> i < 8) hits in
  let body = String.concat "; " (List.map (fun (d, o) -> Printf.sprintf "(%d,%d)" d o) shown) in
  if n > 8 then Printf.sprintf "[%s; ... %d total]" body n else Printf.sprintf "[%s]" body

let pp_str_opt = function
  | None -> "None"
  | Some s ->
    if String.length s > 24 then Printf.sprintf "Some %S..." (String.sub s 0 24)
    else Printf.sprintf "Some %S" s

let pp_outcome pp = function Ok v -> pp v | Error `Rejected -> "Invalid_argument"

(* How often the in-memory matrix stirs documents between shards, so
   migration sits inside the differentially-checked region. *)
let rebalance_every = 41

let run_trace ?(config = default_config) ops =
  let model = Model.create () in
  let index = config.sc_index in
  let baseline = Di.create ~index () in
  let shardeds = List.map (fun k -> (k, S.create ~index ~shards:k ())) config.sc_shard_counts in
  Fun.protect
    ~finally:(fun () ->
      Di.close baseline;
      List.iter (fun (_, t) -> S.close t) shardeds)
  @@ fun () ->
  let step = ref 0 in
  let fail shards op fmt =
    Printf.ksprintf
      (fun m -> raise (Failed { sf_step = !step; sf_shards = shards; sf_op = op; sf_message = m }))
      fmt
  in
  (* baseline queries through the read plane when it owns readers, same
     as the variant matrix *)
  let b_search p =
    if index.readers > 0 then Di.query baseline (fun v -> Di.view_search v p)
    else Di.search baseline p
  in
  let b_count p =
    if index.readers > 0 then Di.query baseline (fun v -> Di.view_count v p)
    else Di.count baseline p
  in
  let b_extract ~doc ~off ~len =
    if index.readers > 0 then Di.query baseline (fun v -> Di.view_extract v ~doc ~off ~len)
    else Di.extract baseline ~doc ~off ~len
  in
  let b_mem id =
    if index.readers > 0 then Di.query baseline (fun v -> Di.view_mem v id)
    else Di.mem baseline id
  in
  try
    List.iter
      (fun op ->
        incr step;
        (match op with
        | Trace.Insert text ->
          let mid = Model.insert model text in
          let bid = Di.insert baseline text in
          if bid <> mid then fail 1 op "baseline insert returned id %d, model %d" bid mid;
          List.iter
            (fun (k, t) ->
              let id = S.insert t text in
              if id <> mid then fail k op "K=%d insert returned id %d, model %d" k id mid)
            shardeds
        | Trace.Delete id ->
          let expected = Model.delete model id in
          let bgot = Di.delete baseline id in
          if bgot <> expected then fail 1 op "baseline delete %d -> %b, model %b" id bgot expected;
          List.iter
            (fun (k, t) ->
              let got = S.delete t id in
              if got <> expected then fail k op "K=%d delete %d -> %b, model %b" k id got expected)
            shardeds
        | Trace.Search p ->
          let expected = capture (fun () -> Model.search model p) in
          let bgot = capture (fun () -> b_search p) in
          if bgot <> expected then
            fail 1 op "baseline search %S -> %s, model %s" p (pp_outcome pp_hits bgot)
              (pp_outcome pp_hits expected);
          List.iter
            (fun (k, t) ->
              let got = capture (fun () -> S.search t p) in
              if got <> expected then
                fail k op "K=%d search %S -> %s, model %s" k p (pp_outcome pp_hits got)
                  (pp_outcome pp_hits expected);
              if got <> bgot then
                fail k op "K=%d search %S diverges from the K=1 baseline" k p)
            shardeds
        | Trace.Count p ->
          let expected = capture (fun () -> Model.count model p) in
          let bgot = capture (fun () -> b_count p) in
          if bgot <> expected then
            fail 1 op "baseline count %S -> %s, model %s" p (pp_outcome string_of_int bgot)
              (pp_outcome string_of_int expected);
          List.iter
            (fun (k, t) ->
              let got = capture (fun () -> S.count t p) in
              if got <> expected then
                fail k op "K=%d count %S -> %s, model %s" k p (pp_outcome string_of_int got)
                  (pp_outcome string_of_int expected);
              if got <> bgot then fail k op "K=%d count %S diverges from the K=1 baseline" k p)
            shardeds
        | Trace.Extract { doc; off; len } ->
          let expected = Model.extract model ~doc ~off ~len in
          let bgot = b_extract ~doc ~off ~len in
          if bgot <> expected then
            fail 1 op "baseline extract %d %d %d -> %s, model %s" doc off len (pp_str_opt bgot)
              (pp_str_opt expected);
          List.iter
            (fun (k, t) ->
              let got = S.extract t ~doc ~off ~len in
              if got <> expected then
                fail k op "K=%d extract %d %d %d -> %s, model %s" k doc off len (pp_str_opt got)
                  (pp_str_opt expected))
            shardeds
        | Trace.Mem id ->
          let expected = Model.mem model id in
          let bgot = b_mem id in
          if bgot <> expected then fail 1 op "baseline mem %d -> %b, model %b" id bgot expected;
          List.iter
            (fun (k, t) ->
              let got = S.mem t id in
              if got <> expected then fail k op "K=%d mem %d -> %b, model %b" k id got expected)
            shardeds
        | Trace.Drain ->
          Di.drain baseline;
          List.iter (fun (_, t) -> S.drain t) shardeds);
        (* periodic migration churn, then the usual size accounting *)
        if !step mod rebalance_every = 0 then
          List.iter (fun (_, t) -> ignore (S.rebalance_hottest t)) shardeds;
        let mdc = Model.doc_count model and mts = Model.total_symbols model in
        let bdc = Di.doc_count baseline in
        if bdc <> mdc then fail 1 op "baseline doc_count %d, model %d" bdc mdc;
        List.iter
          (fun (k, t) ->
            let dc = S.doc_count t in
            if dc <> mdc then fail k op "K=%d doc_count %d, model %d" k dc mdc;
            let ts = S.total_symbols t in
            if ts <> mts then fail k op "K=%d total_symbols %d, model %d" k ts mts)
          shardeds)
      ops;
    Ok ()
  with Failed f -> Error f

let shrink ?(config = default_config) ?max_runs ops =
  Runner.shrink_ops ?max_runs ops ~fails:(fun candidate ->
      match run_trace ~config candidate with Error _ -> true | Ok () -> false)

type stream_outcome =
  | Pass
  | Fail of { failure : failure; trace : Trace.op list; shrunk : Trace.op list }

let run_stream ?(config = default_config) ?profile ?(shrink_budget = 200) ~seed ~ops () =
  let trace = Opgen.generate ?profile ~seed ~ops () in
  match run_trace ~config trace with
  | Ok () -> Pass
  | Error f ->
    let prefix = List.filteri (fun i _ -> i < f.sf_step) trace in
    let shrunk = shrink ~config ~max_runs:shrink_budget prefix in
    let failure = match run_trace ~config shrunk with Error f' -> f' | Ok () -> f in
    Fail { failure; trace; shrunk }

let report ?seed ~failure ~shrunk () =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match seed with
  | Some s -> add "shard differential check FAILED (seed %d)\n" s
  | None -> add "shard differential check FAILED\n");
  add "shards : K=%d\n" failure.sf_shards;
  add "at op  : #%d  %s\n" failure.sf_step (Trace.op_to_string failure.sf_op);
  add "because: %s\n" failure.sf_message;
  add "minimal trace (%d ops):\n%s" (List.length shrunk) (Trace.render shrunk);
  Buffer.contents buf

(* --- durable sweeps --- *)

let default_sweep_config =
  { Durable.default_config with checkpoint_every = 7 }

(* Insert payloads in id order: global ids are sequential, so
   [texts.(i)] is the text acked as document i. *)
let insert_texts ops =
  Array.of_list (List.filter_map (function Trace.Insert t -> Some t | _ -> None) ops)

(* Differential verification of a recovered sharded store against the
   model: counts, membership + extraction for every id ever assigned,
   and searches sampled from live document prefixes. *)
let verify ~what t model texts =
  let expect cond fmt =
    Printf.ksprintf (fun m -> if not cond then failwith (what ^ ": " ^ m)) fmt
  in
  let mdc = Model.doc_count model in
  expect (S.doc_count t = mdc) "doc_count %d, model %d" (S.doc_count t) mdc;
  let mts = Model.total_symbols model in
  expect (S.total_symbols t = mts) "total_symbols %d, model %d" (S.total_symbols t) mts;
  let upper = Array.length texts + 2 in
  for id = 0 to upper do
    let m = Model.mem model id in
    expect (S.mem t id = m) "mem %d -> %b, model %b" id (S.mem t id) m;
    let me = Model.extract model ~doc:id ~off:0 ~len:3 in
    let ge = S.extract t ~doc:id ~off:0 ~len:3 in
    expect (ge = me) "extract %d -> %s, model %s" id (pp_str_opt ge) (pp_str_opt me)
  done;
  let pats = ref [ "ab"; "a" ] in
  Array.iteri
    (fun id text ->
      if Model.mem model id && String.length text >= 2 && List.length !pats < 10 then
        pats := String.sub text 0 (min 3 (String.length text)) :: !pats)
    texts;
  List.iter
    (fun p ->
      if p <> "" then begin
        let ms = Model.search model p and gs = S.search t p in
        expect (gs = ms) "search %S -> %s, model %s" p (pp_hits gs) (pp_hits ms);
        let mc = Model.count model p and gc = S.count t p in
        expect (gc = mc) "count %S -> %d, model %d" p gc mc
      end)
    !pats

let apply_op t model op =
  match op with
  | Trace.Insert text ->
    let mid = Model.insert model text in
    let gid = S.insert t text in
    if gid <> mid then failwith (Printf.sprintf "insert id %d, model %d" gid mid)
  | Trace.Delete id ->
    let m = Model.delete model id in
    let g = S.delete t id in
    if g <> m then failwith (Printf.sprintf "delete %d -> %b, model %b" id g m)
  | Trace.Search p ->
    let m = capture (fun () -> Model.search model p) in
    let g = capture (fun () -> S.search t p) in
    if g <> m then failwith (Printf.sprintf "search %S disagrees" p)
  | Trace.Count p ->
    let m = capture (fun () -> Model.count model p) in
    let g = capture (fun () -> S.count t p) in
    if g <> m then failwith (Printf.sprintf "count %S disagrees" p)
  | Trace.Extract { doc; off; len } ->
    let m = Model.extract model ~doc ~off ~len in
    let g = S.extract t ~doc ~off ~len in
    if g <> m then failwith (Printf.sprintf "extract %d disagrees" doc)
  | Trace.Mem id ->
    let m = Model.mem model id in
    let g = S.mem t id in
    if g <> m then failwith (Printf.sprintf "mem %d -> %b, model %b" id g m)
  | Trace.Drain -> S.drain t

let kill_sweep ?index ?(config = default_sweep_config) ?(torn = true) ?(stride = 1) ~shards ~dir
    ~ops () =
  let ops_arr = Array.of_list ops in
  let n = Array.length ops_arr in
  let texts = insert_texts ops in
  let recovery_jobs = if shards > 1 then 2 else 0 in
  let failures = ref [] in
  let points = ref 0 in
  let point k =
    incr points;
    try
      Kill_check.reset_dir dir;
      let model = Model.create () in
      let t, _ =
        S.open_store ~config ?index ~shards ~dir ()
      in
      for i = 0 to k - 1 do
        apply_op t model ops_arr.(i)
      done;
      (* odd points carry a completed hot-shard split in the meta log,
         so recovery replays migrations as well as placements *)
      if k mod 2 = 1 then ignore (S.rebalance_hottest t);
      S.kill t ~torn;
      let t, _ =
        S.open_store ~config ?index ~recovery_jobs ~shards ~dir ()
      in
      Fun.protect ~finally:(fun () -> S.close t) @@ fun () ->
      verify ~what:(Printf.sprintf "recovery at point %d" k) t model texts;
      for i = k to n - 1 do
        apply_op t model ops_arr.(i)
      done;
      verify ~what:(Printf.sprintf "continuation after point %d" k) t model texts
    with e ->
      failures :=
        { Kill_check.kf_point = k; kf_detail = Printexc.to_string e } :: !failures
  in
  let k = ref 0 in
  while !k <= n do
    point !k;
    k := !k + max 1 stride
  done;
  { Kill_check.kc_points = !points; kc_failures = List.rev !failures }

exception Killed

let split_kill_sweep ?index ?(config = default_sweep_config) ?(torn = false) ~shards ~dir ~ops ()
    =
  if shards < 2 then invalid_arg "Shard_check.split_kill_sweep: needs shards >= 2";
  let texts = insert_texts ops in
  let failures = ref [] in
  let points = ref 0 in
  let finished = ref false in
  let kill_at = ref 0 in
  (* rebuild store + model from scratch for every kill point; migrate
     every live doc of the fullest shard and kill at kill point k *)
  while not !finished do
    let k = !kill_at in
    incr points;
    (try
       Kill_check.reset_dir dir;
       let model = Model.create () in
       let t, _ = S.open_store ~config ?index ~shards ~dir () in
       List.iter (fun op -> apply_op t model op) ops;
       let upper = Array.length texts in
       let src = ref 0 and best = ref (-1) in
       for s = 0 to shards - 1 do
         let live = ref 0 in
         for id = 0 to upper do
           if S.mem t id && S.shard_of t id = Some s then incr live
         done;
         if !live > !best then begin
           best := !live;
           src := s
         end
       done;
       let dst = (!src + 1) mod shards in
       let docs = ref [] in
       for id = upper downto 0 do
         if S.mem t id && S.shard_of t id = Some !src then docs := id :: !docs
       done;
       (try
          ignore
            (S.rebalance t ~hook:(fun step -> if step = k then raise Killed) ~src:!src ~dst
               ~docs:!docs);
          finished := true
        with Killed -> ());
       S.kill t ~torn;
       let t, _ =
         S.open_store ~config ?index ~recovery_jobs:2 ~shards ~dir ()
       in
       Fun.protect ~finally:(fun () -> S.close t) @@ fun () ->
       verify ~what:(Printf.sprintf "split recovery at kill point %d" k) t model texts;
       (* acked-write continuity: the next global id must continue the
          sequence, and the new document must be immediately servable *)
       apply_op t model (Trace.Insert "post-split");
       apply_op t model (Trace.Search "post-spl");
       verify ~what:(Printf.sprintf "split continuation at kill point %d" k) t model texts
     with e ->
       failures := { Kill_check.kf_point = k; kf_detail = Printexc.to_string e } :: !failures;
       (* an exception before the unkilled run completes must not loop
          forever: treat repeated failure at the same point as fatal *)
       if List.length !failures > 4 then finished := true);
    incr kill_at
  done;
  { Kill_check.kc_points = !points; kc_failures = List.rev !failures }
