(* Sharded collections as differential subjects and crashes; see
   shard_check.mli. *)

module Runner = Dsdg_check.Runner
module Durable = Dsdg_store.Durable
module S = Sharded_index

let subjects ~index ~name counts =
  List.map
    (fun k () -> S.subject ~name:(Printf.sprintf "%s K=%d" name k) (S.create ~index ~shards:k ()))
    counts

let default_config = { Durable.sync = Dsdg_store.Wal.Always; checkpoint_every = 7; checkpoint_jobs = 0 }

let crash ?index ?(config = default_config) ?(torn = true) ~shards ~dir () =
  let open_ ~recovery_jobs =
    let t, _ = S.open_store ~config ?index ~recovery_jobs ~shards ~dir () in
    (t, S.subject ~name:(Printf.sprintf "sharded K=%d" shards) t)
  in
  {
    Runner.dir;
    open_ = (fun () -> open_ ~recovery_jobs:0);
    kill = (fun t -> S.kill t ~torn);
    reopen = (fun _ -> snd (open_ ~recovery_jobs:(if shards > 1 then 2 else 0)));
  }
