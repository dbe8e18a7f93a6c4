(* Sharded collections as differential subjects and crashes; see
   shard_check.mli. *)

module Trace = Dsdg_check.Trace
module Runner = Dsdg_check.Runner
module Durable = Dsdg_store.Durable
module S = Sharded_index

(* Every [n]-th [check] (the runner calls it after each op) first
   migrates the hottest shard's documents, so migration happens between
   checked ops. *)
let stirred ~every ~name t =
  let s = S.subject ~name t and ops = ref 0 in
  {
    s with
    check =
      (fun () ->
        incr ops;
        if !ops mod every = 0 then ignore (S.rebalance_hottest t);
        s.check ());
  }

let subjects ~index ~name counts =
  List.map
    (fun k () ->
      stirred ~every:41 ~name:(Printf.sprintf "%s K=%d" name k) (S.create ~index ~shards:k ()))
    counts

let default_config = { Durable.sync = Dsdg_store.Wal.Always; checkpoint_every = 7; checkpoint_jobs = 0 }

(* A store under [dir] whose [kill] runs [before_kill] first; reopening
   recovers K > 1 shards in parallel on 2 executor workers. *)
let store ?index ~config ~torn ~shards ~dir before_kill =
  let open_ ~recovery_jobs =
    let t, _ = S.open_store ~config ?index ~recovery_jobs ~shards ~dir () in
    (t, S.subject ~name:(Printf.sprintf "sharded K=%d" shards) t)
  in
  {
    Runner.dir;
    open_ = (fun () -> open_ ~recovery_jobs:0);
    kill =
      (fun t ~point ->
        before_kill t point;
        S.kill t ~torn);
    reopen = (fun _ -> snd (open_ ~recovery_jobs:(if shards > 1 then 2 else 0)));
  }

let crash ?index ?(config = default_config) ?(torn = true) ~shards ~dir () =
  store ?index ~config ~torn ~shards ~dir (fun t point ->
      if point mod 2 = 1 then ignore (S.rebalance_hottest t))

(* The split: every live document of the fullest shard (the lowest on
   a tie) moves to the next shard, in id order. *)
let split_plan t =
  let k = S.shards t in
  let live = Array.make k [] in
  let rec scan id =
    match S.shard_of t id with
    | None -> ()
    | Some s ->
      if S.mem t id then live.(s) <- id :: live.(s);
      scan (id + 1)
  in
  scan 0;
  let src = ref 0 in
  Array.iteri (fun s l -> if List.length l > List.length live.(!src) then src := s) live;
  (!src, (!src + 1) mod k, List.rev live.(!src))

exception Killed

let split_kill_sweep ?index ?(config = default_config) ?(torn = false) ~shards ~dir ~ops () =
  if shards < 2 then invalid_arg "Shard_check.split_kill_sweep: needs shards >= 2";
  (* the split's kill points: four per document moved (before and after
     the meta intent record, after the destination insert, after the
     source delete), then one after the whole split *)
  let docs =
    let t = S.create ?index ~shards () in
    Fun.protect ~finally:(fun () -> S.close t) @@ fun () ->
    let mutation = function Trace.Insert _ | Trace.Delete _ -> true | _ -> false in
    ignore (S.apply_batch t (List.filter mutation ops));
    let _, _, docs = split_plan t in
    List.length docs
  in
  let crash =
    store ?index ~config ~torn ~shards ~dir (fun t point ->
        let src, dst, docs = split_plan t in
        try ignore (S.rebalance t ~hook:(fun step -> if step = point then raise Killed) ~src ~dst ~docs)
        with Killed -> ())
  in
  (* acked-write continuity: after every recovery the next global id
     must continue the sequence and be served at once *)
  Runner.sweep
    ~inside:(List.length ops, 4 * docs)
    crash
    (ops @ [ Trace.Insert "post-split"; Trace.Search "post-spl" ])
