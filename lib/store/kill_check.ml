(* Durable stores as differential subjects; see kill_check.mli and
   DESIGN.md section 6. *)

let subject ?(name = "durable") d =
  {
    (Dsdg_check.Subject.of_index ~name (Durable.index d)) with
    insert = Durable.insert d;
    delete = Durable.delete d;
    close = (fun () -> Durable.close d);
  }

let default_config =
  { Durable.sync = Wal.Always; checkpoint_every = 7; checkpoint_jobs = 0; keep_snapshots = 2; wal_archives = 4 }

let crash ?index ?(config = default_config) ?(torn = true) ~dir () =
  let open_ () =
    let d, _ = Durable.open_ ~config ?index ~dir () in
    (d, subject d)
  in
  {
    Dsdg_check.Runner.dir;
    open_;
    kill = (fun d ~point:_ -> Durable.kill d ~torn);
    reopen = (fun _ -> snd (open_ ()));
  }
