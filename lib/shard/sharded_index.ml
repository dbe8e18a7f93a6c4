(* Sharding over Dynamic_index by arithmetic placement; contracts
   documented in sharded_index.mli and DESIGN.md section 12. *)

module Di = Dsdg_core.Dynamic_index
module Trace = Dsdg_check.Trace
module Durable = Dsdg_store.Durable
module Subject = Dsdg_check.Subject
module Exec = Dsdg_exec.Executor
open Dsdg_obs

let obs = Obs.scope "shard"
let c_inserts = Obs.counter obs "inserts"
let c_deletes = Obs.counter obs "deletes"
let c_scatter = Obs.counter obs "scatter_queries"
let h_gather_ns = Obs.histogram obs "gather_ns"
let h_recovery_ns = Obs.histogram obs "recovery_ns"

exception Shard_mismatch of { dir : string; on_disk : int; requested : int }
exception Old_layout of { dir : string; version : int }

let () =
  Printexc.register_printer (function
    | Shard_mismatch { dir; on_disk; requested } ->
      Some
        (Printf.sprintf "Sharded_index.Shard_mismatch: %s holds %d shard(s), %d requested" dir
           on_disk requested)
    | Old_layout { dir; version } ->
      Some
        (Printf.sprintf
           "Sharded_index.Old_layout: %s is a version-%d sharded store (hash placement and a \
            placement log); this build reads only version 2 (global id g on shard g mod K) and \
            leaves it untouched"
           dir version)
    | _ -> None)

(* --- the root header (K > 1) --- *)

let meta_file ~dir = Filename.concat dir "shard.meta"

(* Written once, when a K > 1 root is created: tmp + rename, so a crash
   leaves either no header or a whole one. *)
let write_header ~fsync ~dir k =
  Dsdg_store.Snapshot.ensure_dir dir;
  let path = meta_file ~dir in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Printf.fprintf oc "dsdg-shard 2 %d\n" k;
      flush oc;
      if fsync then Unix.fsync (Unix.descr_of_out_channel oc));
  Unix.rename tmp path

let store_shards ~dir =
  let file = meta_file ~dir in
  match In_channel.with_open_bin file In_channel.input_line with
  | exception Sys_error _ ->
    if
      Sys.file_exists (Dsdg_store.Recovery.wal_path ~dir) || Dsdg_store.Snapshot.list ~dir <> []
    then Some 1
    else None
  | line -> (
    let scan fmt = try Option.map (fun l -> Scanf.sscanf l fmt Fun.id) line with _ -> None in
    match (scan "dsdg-shard 2 %d%!", scan "dsdg-shard %d ") with
    | Some k, _ when k > 1 -> Some k
    | _, Some version when version <> 2 -> raise (Old_layout { dir; version })
    | _ ->
      raise
        (Dsdg_store.Codec.Corrupt
           { file; section = "shardmeta"; reason = "bad header (expected \"dsdg-shard 2 K\")" }))

(* --- the sharded index --- *)

(* A store's open parameters stay with it: a follower's snapshot
   re-seed reopens a shard with them. *)
type store = {
  dir : string;
  stores : Durable.t array;
  config : Durable.config;
  index : Dsdg_core.Index_config.t;
}

type backing = Mem | Store of store

type t = {
  k : int;
  idxs : Di.t array;
  backing : backing;
  ins_total : int array;  (* inserts ever per shard (local next id); writer-owned *)
  mutable closed : bool;
  mutable poisoned : bool;  (* a shard failed mid-batch; refuse further writes *)
}

let shards t = t.k

let check_open t =
  if t.closed then invalid_arg "Sharded_index: closed";
  if t.poisoned then invalid_arg "Sharded_index: poisoned by a failed shard write"

let make ~idxs ~backing =
  {
    k = Array.length idxs;
    idxs;
    backing;
    ins_total = Array.map Di.next_id idxs;
    closed = false;
    poisoned = false;
  }

(* The placement rule: local id [l] of shard [s] is global id [l*K + s]. *)
let global t s l = (l * t.k) + s

(* The shard the next insert lands on: the one whose next slot
   [ins_total(s)*K + s] is smallest.  With every shard's inserts landed
   that slot is the insert count; after a crash between shard commits
   it is the lagging shard's. *)
let next_shard k totals =
  let best = ref 0 in
  for s = 1 to k - 1 do
    if (totals.(s) * k) + s < (totals.(!best) * k) + !best then best := s
  done;
  !best

let create ?(index = Dsdg_core.Index_config.default) ~shards () =
  if shards < 1 then invalid_arg "Sharded_index.create: shards must be >= 1";
  let index =
    Dsdg_core.Index_config.validate_collection ~indexes:shards ~checkpoint_jobs:0 ~recovery_jobs:0
      index
  in
  make ~idxs:(Array.init shards (fun _ -> Di.create ~index ())) ~backing:Mem

(* K = 1 keeps the single-store layout: the shard's store is the
   directory itself. *)
let shard_dir ~k dir s =
  if k = 1 then dir else Filename.concat dir (Printf.sprintf "shard-%d" s)

let open_store ?(config = Durable.default_config) ?(index = Dsdg_core.Index_config.default)
    ?(recovery_jobs = 0) ~shards ~dir () =
  if shards < 1 then invalid_arg "Sharded_index.open_store: shards must be >= 1";
  let index =
    Dsdg_core.Index_config.validate_collection ~indexes:shards
      ~checkpoint_jobs:config.Durable.checkpoint_jobs ~recovery_jobs index
  in
  let k = shards in
  (match store_shards ~dir with
  | Some d when d <> k -> raise (Shard_mismatch { dir; on_disk = d; requested = k })
  | None when k > 1 -> write_header ~fsync:(config.Durable.sync <> Dsdg_store.Wal.Never) ~dir k
  | _ -> ());
  let t0 = Obs.start () in
  (* the K shard stores recover independently (newest valid snapshot +
     its WAL tail folded in), in parallel on an executor pool when
     recovery_jobs > 0 *)
  let open_one s = Durable.open_ ~config ~index ~dir:(shard_dir ~k dir s) () in
  let pairs =
    if recovery_jobs > 0 then begin
      let ex = Exec.create ~obs:(Obs.private_scope "shard/recovery") ~workers:recovery_jobs () in
      let handles = Array.init k (fun s -> Exec.submit ex ~name:"shard-open" (fun _ -> open_one s)) in
      let out =
        Array.map
          (fun h ->
            match Exec.await ex h with
            | `Done r -> Some r
            | `Failed e ->
              Exec.shutdown ex;
              raise e
            | `Cancelled -> None)
          handles
      in
      Exec.shutdown ex;
      Array.map (function Some r -> r | None -> failwith "shard open cancelled") out
    end
    else Array.init k open_one
  in
  let stores = Array.map fst pairs in
  let t =
    make ~idxs:(Array.map Durable.index stores) ~backing:(Store { dir; stores; config; index })
  in
  Obs.stop h_recovery_ns t0;
  (t, Array.map snd pairs)

(* --- queries: scatter across shard views, gather by arithmetic --- *)

(* Resolve a composite epoch_vector into the K frozen shard views (the
   live state, the retention rings, then the pins), so the as-of query
   runs without touching the live read plane. *)
let resolve_at t ev =
  if Array.length ev <> t.k then
    invalid_arg
      (Printf.sprintf "Sharded_index: epoch_vector has %d entries, want %d (one per shard)"
         (Array.length ev) t.k);
  Array.init t.k (fun s ->
      match Di.view_at t.idxs.(s) ~epoch:ev.(s) with
      | Some v -> v
      | None ->
        invalid_arg
          (Printf.sprintf "Sharded_index: shard %d epoch %d is not retained or pinned" s ev.(s)))

(* Run [f] against shard [s]: the reader pool / live view when [at] is
   [None], the frozen view otherwise. *)
let q_at t at s f =
  match at with None -> Di.query t.idxs.(s) f | Some views -> f (views : Di.view array).(s)

let search ?epoch_vector t p =
  check_open t;
  if p = "" then invalid_arg "Dynamic_index: empty pattern";
  Obs.incr c_scatter;
  let t0 = Obs.start () in
  let at = Option.map (resolve_at t) epoch_vector in
  (* each shard's hits are sorted and l -> l*K + s is monotone, so the
     translated lists merge *)
  let hits = ref [] in
  for s = 0 to t.k - 1 do
    let local = q_at t at s (fun v -> Di.view_search v p) in
    hits := List.merge compare !hits (List.map (fun (l, off) -> (global t s l, off)) local)
  done;
  Obs.stop h_gather_ns t0;
  !hits

let count ?epoch_vector t p =
  check_open t;
  if p = "" then invalid_arg "Dynamic_index: empty pattern";
  Obs.incr c_scatter;
  let t0 = Obs.start () in
  let at = Option.map (resolve_at t) epoch_vector in
  let n = ref 0 in
  for s = 0 to t.k - 1 do
    n := !n + q_at t at s (fun v -> Di.view_count v p)
  done;
  Obs.stop h_gather_ns t0;
  !n

let extract ?epoch_vector t ~doc ~off ~len =
  check_open t;
  let at = Option.map (resolve_at t) epoch_vector in
  if doc < 0 then None
  else q_at t at (doc mod t.k) (fun v -> Di.view_extract v ~doc:(doc / t.k) ~off ~len)

let mem ?epoch_vector t id =
  check_open t;
  let at = Option.map (resolve_at t) epoch_vector in
  id >= 0 && q_at t at (id mod t.k) (fun v -> Di.view_mem v (id / t.k))

let doc_count t = Array.fold_left (fun acc idx -> acc + Di.doc_count idx) 0 t.idxs
let total_symbols t = Array.fold_left (fun acc idx -> acc + Di.total_symbols idx) 0 t.idxs
let describe t = Printf.sprintf "sharded(K=%d) over %s" t.k (Di.describe t.idxs.(0))
let drain t = Array.iter Di.drain t.idxs

(* --- mutations: one batched write path --- *)

(* Apply a sub-batch of shard-local mutations to shard [s]: one group
   commit of its store, or the index directly in memory. *)
let shard_apply t s ops =
  match t.backing with
  | Store { stores; _ } -> Durable.apply_batch stores.(s) ops
  | Mem ->
    let idx = t.idxs.(s) in
    List.map
      (function
        | Trace.Insert text -> Subject.Br_inserted (Di.insert idx text)
        | Trace.Delete l -> Subject.Br_deleted (Di.delete idx l)
        | _ -> assert false)
      ops

let apply_batch t ops =
  check_open t;
  List.iter
    (function
      | Trace.Insert _ | Trace.Delete _ -> ()
      | op ->
        invalid_arg
          (Printf.sprintf "Sharded_index.apply_batch: %S is not a mutation"
             (Trace.op_to_string op)))
    ops;
  (* plan the whole batch against a copy of the insert totals, so a
     delete later in the batch sees inserts earlier in it; each op
     becomes [Some s] (it goes to shard s) or [None] (a delete of an id
     never inserted) *)
  let totals = Array.copy t.ins_total in
  let per_shard = Array.make t.k [] in
  let route s op =
    per_shard.(s) <- op :: per_shard.(s);
    Some s
  in
  let plan =
    List.map
      (function
        | Trace.Insert _ as op ->
          let s = next_shard t.k totals in
          totals.(s) <- totals.(s) + 1;
          route s op
        | Trace.Delete g when g >= 0 && g / t.k < totals.(g mod t.k) ->
          (* the shard speaks local ids *)
          route (g mod t.k) (Trace.Delete (g / t.k))
        | _ -> None)
      ops
  in
  (* one group commit per shard *)
  let results = Array.make t.k [] in
  (try
     Array.iteri
       (fun s ops_rev -> if ops_rev <> [] then results.(s) <- shard_apply t s (List.rev ops_rev))
       per_shard
   with e ->
     t.poisoned <- true;
     raise e);
  Array.blit totals 0 t.ins_total 0 t.k;
  (* stitch shard results back into op order; inserts report global ids *)
  List.map
    (function
      | None -> Subject.Br_deleted false
      | Some s -> (
        match results.(s) with
        | r :: rest -> (
          results.(s) <- rest;
          match r with
          | Subject.Br_inserted l ->
            Obs.incr c_inserts;
            Subject.Br_inserted (global t s l)
          | Subject.Br_deleted ok ->
            if ok then Obs.incr c_deletes;
            r)
        | [] ->
          t.poisoned <- true;
          failwith "Sharded_index.apply_batch: shard result misalignment"))
    plan

let insert t text =
  match apply_batch t [ Trace.Insert text ] with [ Subject.Br_inserted g ] -> g | _ -> assert false

let delete t id =
  match apply_batch t [ Trace.Delete id ] with [ Subject.Br_deleted ok ] -> ok | _ -> assert false

(* --- consistency probes --- *)

let shard_of t id = if id < 0 then None else Some (id mod t.k)
let epoch_vector t = Array.map (fun idx -> Di.view_epoch (Di.view idx)) t.idxs

let wal_serials t =
  match t.backing with
  | Mem -> Array.make t.k 0
  | Store { stores; _ } -> Array.map Durable.wal_serial stores

(* --- pinned epoch-vector backups --- *)

type pin = Pk_mem of Di.pin array | Pk_store of Durable.pin array

(* Pin all K shards at one update boundary: the pinned state is exactly
   what the epoch_vector names, and it stays resolvable (as-of queries,
   backup) however far retention evicts. *)
let pin t =
  check_open t;
  match t.backing with
  | Mem -> Pk_mem (Array.map Di.pin t.idxs)
  | Store { stores; _ } -> Pk_store (Array.map Durable.pin stores)

let pin_epoch_vector = function
  | Pk_mem pins -> Array.map Di.pin_epoch pins
  | Pk_store pins -> Array.map Durable.pin_epoch pins

let unpin t p =
  match (p, t.backing) with
  | Pk_mem pins, _ -> Array.iteri (fun s pn -> Di.unpin t.idxs.(s) pn) pins
  | Pk_store pins, Store { stores; _ } -> Array.iteri (fun s pn -> Durable.unpin stores.(s) pn) pins
  | Pk_store _, Mem -> ()

let backup t p ~dest =
  check_open t;
  match (t.backing, p) with
  | Store { stores; config; _ }, Pk_store pins ->
    if t.k > 1 then write_header ~fsync:(config.Durable.sync <> Dsdg_store.Wal.Never) ~dir:dest t.k;
    Array.iteri
      (fun s pn -> ignore (Durable.backup stores.(s) pn ~dest:(shard_dir ~k:t.k dest s)))
      pins;
    dest
  | _ -> invalid_arg "Sharded_index.backup: store-backed sharded indexes only"

(* --- replication surface --- *)

let backing_stores t =
  match t.backing with Mem -> None | Store { stores; _ } -> Some stores

let indexes t = t.idxs

let replica_store t ~shard what =
  check_open t;
  if shard < 0 || shard >= t.k then
    invalid_arg (Printf.sprintf "Sharded_index.%s: shard out of range" what);
  match t.backing with
  | Mem -> invalid_arg (Printf.sprintf "Sharded_index.%s: store-backed indexes only" what)
  | Store s -> s

(* A shipped record already speaks the shard's local ids, so shard
   [shard]'s records land as one group commit of the replica's own
   store (identical serials leader/follower). *)
let replica_ops t ~shard ops =
  let { stores; _ } = replica_store t ~shard "replica_ops" in
  List.iter
    (function
      | Subject.Br_inserted _ ->
        t.ins_total.(shard) <- t.ins_total.(shard) + 1;
        Obs.incr c_inserts
      | Subject.Br_deleted ok -> if ok then Obs.incr c_deletes)
    (Durable.apply_batch stores.(shard) ops)

(* Replace shard [shard]'s store by the shipped snapshot (close, wipe,
   install, reopen with the store's own settings).  A query running
   meanwhile (a read-only server's connection thread, no lock) reads
   [t.idxs.(shard)]'s view, and a closed index still answers from its
   last published view, so it answers as of before the re-seed or
   after it. *)
let replica_snapshot t ~shard ~serial ~bytes =
  let { dir; stores; config; index } = replica_store t ~shard "replica_snapshot" in
  let dir = shard_dir ~k:t.k dir shard in
  Durable.close stores.(shard);
  Durable.install_snapshot ~dir ~serial bytes;
  stores.(shard) <- fst (Durable.open_ ~config ~index ~dir ());
  t.idxs.(shard) <- Durable.index stores.(shard);
  t.ins_total.(shard) <- Di.next_id t.idxs.(shard)

(* --- lifecycle --- *)

let checkpoint t =
  check_open t;
  match t.backing with Mem -> () | Store { stores; _ } -> Array.iter Durable.checkpoint stores

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.backing with
    | Mem -> Array.iter Di.close t.idxs
    | Store { stores; _ } -> Array.iter Durable.close stores
  end

let kill t ~torn =
  if not t.closed then begin
    t.closed <- true;
    match t.backing with
    | Mem -> Array.iter Di.close t.idxs
    | Store { stores; _ } -> Array.iter (fun st -> Durable.kill st ~torn) stores
  end

(* --- the sharded collection as a subject --- *)

(* One replication poll of shard s's WAL, the stream ["wal<s>"]. *)
let repl t ~stream ~from =
  match t.backing with
  | Mem -> Subject.Rp_error "an in-memory index has no replication streams"
  | Store { stores; _ } -> (
    match
      if String.starts_with ~prefix:"wal" stream then
        int_of_string_opt (String.sub stream 3 (String.length stream - 3))
      else None
    with
    | Some s when s >= 0 && s < t.k -> Durable.ship stores.(s) ~from
    | _ -> Subject.Rp_error (Printf.sprintf "unknown stream %S" stream))

(* Make every logged write durable: the idle flush under lazy sync
   policies. *)
let flush t =
  match t.backing with Mem -> () | Store { stores; _ } -> Array.iter Durable.sync_wal stores

let subject ?name t =
  (* per-shard census and paper invariants, one oracle per shard index;
     a follower's snapshot re-seed replaces the index, and its oracle *)
  let checks = Array.make t.k None in
  let check s =
    let idx = t.idxs.(s) in
    match checks.(s) with
    | Some (i, c) when i == idx -> c ()
    | _ ->
      let c = (Subject.of_index ~name:"" idx).check in
      checks.(s) <- Some (idx, c);
      c ()
  in
  let per_shard f =
    List.concat (List.init t.k (fun s -> List.map (Printf.sprintf "shard %d: %s" s) (f s)))
  in
  {
    Subject.name = (match name with Some n -> n | None -> describe t);
    apply_batch = apply_batch t;
    search = (fun p -> search t p);
    count = (fun p -> count t p);
    extract = (fun ~doc ~off ~len -> extract t ~doc ~off ~len);
    mem = (fun id -> mem t id);
    drain = (fun () -> drain t);
    doc_count = (fun () -> doc_count t);
    total_symbols = (fun () -> total_symbols t);
    stats =
      (fun () ->
        [
          ("docs", doc_count t);
          ("symbols", total_symbols t);
          ("epoch", Array.fold_left ( + ) 0 (epoch_vector t));
          ("shards", t.k);
        ]);
    repl = repl t;
    flush = (fun () -> flush t);
    check = (fun () -> per_shard check);
    events = (fun () -> per_shard (fun s -> Di.events t.idxs.(s)));
    checkpoint = (fun () -> checkpoint t);
    close = (fun () -> close t);
    kill = (fun ~torn -> kill t ~torn);
  }
