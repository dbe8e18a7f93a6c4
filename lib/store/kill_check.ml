(* The durable store's crash for the kill sweep; see kill_check.mli and
   DESIGN.md section 6. *)

let default_config = { Durable.sync = Wal.Always; checkpoint_every = 7; checkpoint_jobs = 0 }

let crash ?index ?(config = default_config) ?(torn = true) ~dir () =
  let open_ () =
    let d, _ = Durable.open_ ~config ?index ~dir () in
    (d, Durable.subject d)
  in
  {
    Dsdg_check.Runner.dir;
    open_;
    kill = (fun d ~point:_ -> Durable.kill d ~torn);
    reopen = (fun _ -> snd (open_ ()));
  }
