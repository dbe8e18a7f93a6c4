(* Sharded collections as differential subjects; see shard_check.mli. *)

module Trace = Dsdg_check.Trace
module Model = Dsdg_check.Model
module Runner = Dsdg_check.Runner
module Kill_check = Dsdg_store.Kill_check
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

let crash ?index ?(config = Kill_check.default_config) ?(torn = true) ~shards ~dir () =
  let open_ ~recovery_jobs =
    let t, _ = S.open_store ~config ?index ~recovery_jobs ~shards ~dir () in
    (t, S.subject ~name:(Printf.sprintf "sharded K=%d" shards) t)
  in
  {
    Runner.dir;
    open_ = (fun () -> open_ ~recovery_jobs:0);
    kill =
      (fun t ~point ->
        if point mod 2 = 1 then ignore (S.rebalance_hottest t);
        S.kill t ~torn);
    reopen = (fun _ -> snd (open_ ~recovery_jobs:(if shards > 1 then 2 else 0)));
  }

exception Killed

let split_kill_sweep ?index ?(config = Kill_check.default_config) ?(torn = false) ~shards ~dir ~ops
    () =
  if shards < 2 then invalid_arg "Shard_check.split_kill_sweep: needs shards >= 2";
  let failures = ref [] in
  let fail k detail = failures := { Runner.kf_point = k; kf_detail = detail } :: !failures in
  let points = ref 0 in
  let finished = ref false in
  let kill_at = ref 0 in
  let run model s ops =
    List.iter
      (fun op -> match Runner.apply model s op with Ok () -> () | Error m -> failwith m)
      ops
  in
  (* rebuild store + model from scratch for every kill point; migrate
     every live doc of the fullest shard and kill at kill point k *)
  while not !finished do
    let k = !kill_at in
    incr points;
    (try
       Runner.reset_dir dir;
       let model = Model.create () in
       let t, _ = S.open_store ~config ?index ~shards ~dir () in
       run model (S.subject ~name:"split" t) ops;
       let upper = Model.inserted model in
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
       let t, _ = S.open_store ~config ?index ~recovery_jobs:2 ~shards ~dir () in
       let s = S.subject ~name:"split" t in
       Fun.protect ~finally:s.close @@ fun () ->
       List.iter (fail k) (Runner.verify ~label:"split recovery" s model);
       (* acked-write continuity: the next global id must continue the
          sequence, and the new document must be immediately servable *)
       run model s [ Trace.Insert "post-split"; Trace.Search "post-spl" ];
       List.iter (fail k) (Runner.verify ~label:"split continuation" s model)
     with e ->
       fail k (Printexc.to_string e);
       (* an exception before the unkilled run completes must not loop
          forever: treat repeated failure at the same point as fatal *)
       if List.length !failures > 4 then finished := true);
    incr kill_at
  done;
  Runner.reset_dir dir;
  { Runner.kc_points = !points; kc_failures = List.rev !failures }
