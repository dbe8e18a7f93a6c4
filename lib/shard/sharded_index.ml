(* Hash-partitioned sharding over Dynamic_index; contracts documented
   in sharded_index.mli and DESIGN.md section 12. *)

module Di = Dsdg_core.Dynamic_index
module Trace = Dsdg_check.Trace
module Durable = Dsdg_store.Durable
module Subject = Dsdg_check.Subject
module Exec = Dsdg_exec.Executor
open Dsdg_obs

let obs = Obs.scope "shard"
let c_inserts = Obs.counter obs "inserts"
let c_deletes = Obs.counter obs "deletes"
let c_migrations = Obs.counter obs "migrations"
let c_fixups = Obs.counter obs "recovery_fixups"
let c_orphans = Obs.counter obs "recovery_orphans"
let c_scatter = Obs.counter obs "scatter_queries"
let h_gather_ns = Obs.histogram obs "gather_ns"
let h_recovery_ns = Obs.histogram obs "recovery_ns"

exception Shard_mismatch of { dir : string; on_disk : int; requested : int }

let () =
  Printexc.register_printer (function
    | Shard_mismatch { dir; on_disk; requested } ->
      Some
        (Printf.sprintf "Sharded_index.Shard_mismatch: %s holds %d shard(s), %d requested" dir
           on_disk requested)
    | _ -> None)

(* --- the partition function --- *)

(* A fixed avalanche mixer over the global id: deterministic across
   runs and processes (recovery re-derives every placement from the
   meta log, but fresh routing must also be reproducible), uniform
   enough that K shards stay balanced under sequential ids. *)
let mix g =
  let h = g + 0x1FC64E6DA3BC5C1 in
  let h = (h lxor (h lsr 33)) * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x9E3779B97F4A7 in
  (h lxor (h lsr 32)) land max_int

let route k g = mix g mod k

(* --- the global <-> local mapping, epoch-published --- *)

module Imap = Map.Make (Int)

type placement = { pl_shard : int; pl_local : int }

type mapping = {
  m_g2p : placement Imap.t;  (* global id -> current placement (kept for dead ids) *)
  m_l2g : int Imap.t array;  (* per shard: local id -> global id, live placements only *)
  m_next_global : int;
  m_version : int;
}

let mapping0 k =
  { m_g2p = Imap.empty; m_l2g = Array.make k Imap.empty; m_next_global = 0; m_version = 0 }

(* Where global id [g] lives, given a mapping's [g2p] and next id.  At
   K = 1 every insert lands on shard 0 under global id = local id and
   nothing migrates, so the mapping keeps no tables (only the next id):
   the placement is the id itself. *)
let placement ~k g2p next_g g =
  if k > 1 then Imap.find_opt g g2p
  else if g >= 0 && g < next_g then Some { pl_shard = 0; pl_local = g }
  else None

(* --- the placement meta log (store mode) --- *)

type ev = Ev_insert of int * int | Ev_migrate of int * int * int

let ev_to_line = function
  | Ev_insert (g, s) -> Printf.sprintf "I %d %d" g s
  | Ev_migrate (g, src, dst) -> Printf.sprintf "M %d %d %d" g src dst

let ev_of_line line =
  let scan fmt k = try Some (Scanf.sscanf line fmt k) with _ -> None in
  if String.length line < 2 then None
  else
    match line.[0] with
    | 'I' -> scan "I %d %d" (fun g s -> Ev_insert (g, s))
    | 'M' -> scan "M %d %d %d" (fun g a b -> Ev_migrate (g, a, b))
    | _ -> None

type meta = {
  mt_path : string;
  mutable mt_oc : out_channel;
  mt_fsync : bool;
  (* the file's events in order, kept in memory so a replication poll
     reads its tail without re-reading the file; entries below
     [mt_records] are published (durable once fsynced) *)
  mutable mt_log : ev array;
  mt_records : int Atomic.t;
}

let meta_file ~dir = Filename.concat dir "shard.meta"
let header k = Printf.sprintf "dsdg-shard 1 %d" k

let parse_header line =
  try Some (Scanf.sscanf line "dsdg-shard 1 %d" (fun k -> k)) with _ -> None

let corrupt ~file reason =
  raise (Dsdg_store.Codec.Corrupt { file; section = "shardmeta"; reason })

(* Read the meta log: header + events.  The final record may be torn
   (crash mid-append): an unparseable or newline-less last line is
   dropped; an unparseable interior line is corruption. *)
let meta_read path =
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let complete, lines =
    match String.split_on_char '\n' raw with
    | [] -> (true, [])
    | parts ->
      let rec split acc = function
        | [ last ] -> (last = "", List.rev acc)
        | x :: rest -> split (x :: acc) rest
        | [] -> (true, List.rev acc)
      in
      let ended, body = split [] parts in
      if ended then (true, body)
      else (false, body @ [ List.nth parts (List.length parts - 1) ])
  in
  match lines with
  | [] -> corrupt ~file:path "empty meta log"
  | hd :: evs -> (
    match parse_header hd with
    | None -> corrupt ~file:path "bad header (expected \"dsdg-shard 1 K\")"
    | Some k ->
      let n = List.length evs in
      let events =
        List.filteri (fun _ l -> l <> "") evs
        |> List.mapi (fun i line -> (i, line))
        |> List.filter_map (fun (i, line) ->
               match ev_of_line line with
               | Some ev -> Some ev
               | None ->
                 (* only the final record may be garbage, and only when
                    the file does not end in a newline (torn append) *)
                 if i = n - 1 && not complete then None
                 else corrupt ~file:path (Printf.sprintf "unparseable record %S" line))
      in
      (k, events))

let meta_open_append ~fsync path events =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  let log = Array.of_list events in
  { mt_path = path; mt_oc = oc; mt_fsync = fsync; mt_log = log;
    mt_records = Atomic.make (Array.length log) }

let meta_create ~fsync path k =
  let mt = meta_open_append ~fsync path [] in
  output_string mt.mt_oc (header k ^ "\n");
  flush mt.mt_oc;
  if fsync then Unix.fsync (Unix.descr_of_out_channel mt.mt_oc);
  mt

(* Append events with at most one fsync for the whole group -- the
   meta-log half of the sharded group commit -- then publish them to
   replication polls (the slots are written before the count). *)
let meta_append mt evs =
  List.iter (fun ev -> output_string mt.mt_oc (ev_to_line ev ^ "\n")) evs;
  flush mt.mt_oc;
  if mt.mt_fsync then Unix.fsync (Unix.descr_of_out_channel mt.mt_oc);
  let n0 = Atomic.get mt.mt_records in
  let n = n0 + List.length evs in
  if n > Array.length mt.mt_log then begin
    let log = Array.make (max 16 (2 * n)) (Ev_insert (0, 0)) in
    Array.blit mt.mt_log 0 log 0 n0;
    mt.mt_log <- log
  end;
  List.iteri (fun i ev -> mt.mt_log.(n0 + i) <- ev) evs;
  Atomic.set mt.mt_records n

(* Compact the log to exactly the surviving events (recovery dropped an
   unacknowledged tail or adopted orphans): tmp + rename, the same
   atomic-install idiom as Wal.rewrite. *)
let meta_rewrite mt k evs =
  close_out_noerr mt.mt_oc;
  let tmp = mt.mt_path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (header k ^ "\n");
  List.iter (fun ev -> output_string oc (ev_to_line ev ^ "\n")) evs;
  flush oc;
  if mt.mt_fsync then Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  Unix.rename tmp mt.mt_path;
  let fresh = meta_open_append ~fsync:mt.mt_fsync mt.mt_path evs in
  mt.mt_oc <- fresh.mt_oc;
  mt.mt_log <- fresh.mt_log;
  Atomic.set mt.mt_records (Atomic.get fresh.mt_records)

(* --- the sharded index --- *)

(* A store's open parameters stay with it: a follower's snapshot
   re-seed reopens shard 0 with them.  K = 1 keeps no meta log. *)
type backing =
  | Mem
  | Store of {
      dir : string;
      stores : Durable.t array;
      meta : meta option;
      config : Durable.config;
      index : Dsdg_core.Index_config.t;
    }

type t = {
  k : int;
  idxs : Di.t array;
  backing : backing;
  mapping : mapping Atomic.t;
  ins_total : int array;  (* inserts ever per shard (local next id); writer-owned *)
  mutable closed : bool;
  mutable poisoned : bool;  (* a shard failed mid-batch; refuse further writes *)
  (* as-of retention: recent mappings, newest first, so a composite
     epoch_vector stays resolvable while each shard's own retention
     ring holds the matching view.  The mapping version advances once
     per update (vs ~1/K per shard epoch), so the ring holds
     [retain * K] entries to cover roughly the same time window. *)
  retain : int;
  map_cap : int;
  map_ring : mapping list Atomic.t;
  pinned_maps : (int * mapping) list Atomic.t;
  pin_next : int Atomic.t;
  (* follower replay: placements shipped from the leader's meta stream,
     queued per destination shard until the matching shard WAL record
     arrives and binds the global id *)
  repl_pending : ev Queue.t array;
}

let shards t = t.k

let check_open t =
  if t.closed then invalid_arg "Sharded_index: closed";
  if t.poisoned then invalid_arg "Sharded_index: poisoned by a failed shard write"

let publish t m =
  Atomic.set t.mapping m;
  if t.retain > 0 then begin
    let rec keep n = function
      | [] -> []
      | _ :: _ when n = 0 -> []
      | x :: tl -> x :: keep (n - 1) tl
    in
    Atomic.set t.map_ring (keep t.map_cap (m :: Atomic.get t.map_ring))
  end

let set_l2g m s v =
  let a = Array.copy m.m_l2g in
  a.(s) <- v;
  a

(* A sharded index over [idxs] with nothing pinned or queued; the
   mapping ring retains [retain_epochs * K] versions. *)
let make (index : Dsdg_core.Index_config.t) ~idxs ~backing ~mapping ~ins_total =
  let k = Array.length idxs in
  {
    k;
    idxs;
    backing;
    mapping = Atomic.make mapping;
    ins_total;
    closed = false;
    poisoned = false;
    retain = index.retain_epochs;
    map_cap = index.retain_epochs * k;
    (* the mapping it starts from is retained like every later one *)
    map_ring = Atomic.make (if index.retain_epochs > 0 then [ mapping ] else []);
    pinned_maps = Atomic.make [];
    pin_next = Atomic.make 0;
    repl_pending = Array.init k (fun _ -> Queue.create ());
  }

let create ?(index = Dsdg_core.Index_config.default) ~shards () =
  if shards < 1 then invalid_arg "Sharded_index.create: shards must be >= 1";
  let index =
    Dsdg_core.Index_config.validate_collection ~indexes:shards ~checkpoint_jobs:0 ~recovery_jobs:0
      index
  in
  make index
    ~idxs:(Array.init shards (fun _ -> Di.create ~index ()))
    ~backing:Mem ~mapping:(mapping0 shards) ~ins_total:(Array.make shards 0)

(* K = 1 keeps the single-store layout: the shard's store is the
   directory itself. *)
let shard_dir ~k dir s =
  if k = 1 then dir else Filename.concat dir (Printf.sprintf "shard-%d" s)

let store_shards ~dir =
  match In_channel.with_open_bin (meta_file ~dir) In_channel.input_line with
  | Some line -> parse_header line
  | None -> None
  | exception Sys_error _ ->
    if
      Sys.file_exists (Dsdg_store.Recovery.wal_path ~dir) || Dsdg_store.Snapshot.list ~dir <> []
    then Some 1
    else None

(* Replay the meta log against the recovered shard insert counts:
   consume insert events in order per shard; events beyond a shard's
   durable inserts are an unacknowledged crash tail and are dropped,
   shard inserts beyond the meta log (possible only under --sync never)
   are adopted as orphans with fresh global ids.  K = 1 logs no
   placements and its mapping keeps no tables ([placement]): its next
   id is the shard's insert count.  Returns the mapping, the
   per-shard insert totals, the surviving events and whether the log
   must be rewritten to them. *)
let reconcile ~path stores events =
  let k = Array.length stores in
  let idxs = Array.map Durable.index stores in
  let totals = Array.map Di.next_id idxs in
  let consumed = Array.make k 0 in
  let g2p = ref Imap.empty in
  let l2g = Array.make k Imap.empty in
  let next_g = ref 0 in
  let surviving = ref [] in
  let changed = ref false in
  List.iter
    (fun ev ->
      match ev with
      | Ev_insert (g, s) ->
        if s < 0 || s >= k then corrupt ~file:path (Printf.sprintf "shard %d out of range" s);
        if consumed.(s) < totals.(s) then begin
          let l = consumed.(s) in
          consumed.(s) <- l + 1;
          g2p := Imap.add g { pl_shard = s; pl_local = l } !g2p;
          if Di.mem idxs.(s) l then l2g.(s) <- Imap.add l g l2g.(s);
          if g >= !next_g then next_g := g + 1;
          surviving := ev :: !surviving
        end
        else changed := true
      | Ev_migrate (g, src, dst) -> (
        if src < 0 || src >= k || dst < 0 || dst >= k then
          corrupt ~file:path "migration shard out of range";
        match Imap.find_opt g !g2p with
        | None -> changed := true (* migration of a dropped insert *)
        | Some { pl_shard; pl_local } ->
          if pl_shard <> src then
            corrupt ~file:path
              (Printf.sprintf "migration of doc %d from shard %d, but it lives on %d" g src
                 pl_shard);
          if consumed.(dst) < totals.(dst) then begin
            let l' = consumed.(dst) in
            consumed.(dst) <- l' + 1;
            l2g.(src) <- Imap.remove pl_local l2g.(src);
            g2p := Imap.add g { pl_shard = dst; pl_local = l' } !g2p;
            if Di.mem idxs.(dst) l' then l2g.(dst) <- Imap.add l' g l2g.(dst);
            surviving := ev :: !surviving;
            (* the destination insert landed but the source delete did
               not: finish the migration so the document is served
               exactly once *)
            if Di.mem idxs.(src) pl_local then begin
              ignore (Durable.delete stores.(src) pl_local);
              changed := true;
              Obs.incr c_fixups
            end
          end
          else changed := true (* destination insert never landed; doc stays at src *)))
    events;
  if k = 1 then next_g := totals.(0)
  else
    for s = 0 to k - 1 do
      while consumed.(s) < totals.(s) do
        let l = consumed.(s) in
        consumed.(s) <- l + 1;
        let g = !next_g in
        next_g := g + 1;
        g2p := Imap.add g { pl_shard = s; pl_local = l } !g2p;
        if Di.mem idxs.(s) l then l2g.(s) <- Imap.add l g l2g.(s);
        surviving := Ev_insert (g, s) :: !surviving;
        changed := true;
        Obs.incr c_orphans
      done
    done;
  ( { m_g2p = !g2p; m_l2g = l2g; m_next_global = !next_g; m_version = 0 },
    totals,
    List.rev !surviving,
    !changed )

let open_store ?(config = Durable.default_config) ?(index = Dsdg_core.Index_config.default)
    ?(recovery_jobs = 0) ~shards ~dir () =
  if shards < 1 then invalid_arg "Sharded_index.open_store: shards must be >= 1";
  let index =
    Dsdg_core.Index_config.validate_collection ~indexes:shards
      ~checkpoint_jobs:config.Durable.checkpoint_jobs ~recovery_jobs index
  in
  (match store_shards ~dir with
  | Some k when k <> shards -> raise (Shard_mismatch { dir; on_disk = k; requested = shards })
  | _ -> ());
  let t0 = Obs.start () in
  Dsdg_store.Snapshot.ensure_dir dir;
  let fsync = config.Durable.sync <> Dsdg_store.Wal.Never in
  let path = meta_file ~dir in
  let k = shards in
  let events, meta =
    if k = 1 then ([], None)
    else if Sys.file_exists path then
      let _, events = meta_read path in
      (events, Some (meta_open_append ~fsync path events))
    else ([], Some (meta_create ~fsync path k))
  in
  (* open the K shard stores -- in parallel on an executor pool when
     recovery_jobs > 0; each store recovers independently (newest valid
     snapshot + its WAL tail folded in) *)
  let open_one s =
    Durable.open_ ~config ~index ~dir:(shard_dir ~k dir s) ()
  in
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
  let mapping, totals, surviving, changed = reconcile ~path stores events in
  (match meta with Some mt when changed -> meta_rewrite mt k surviving | _ -> ());
  let t =
    make index ~idxs:(Array.map Durable.index stores)
      ~backing:(Store { dir; stores; meta; config; index })
      ~ins_total:totals ~mapping
  in
  Obs.stop h_recovery_ns t0;
  (t, Array.map snd pairs)

(* --- queries: scatter across shard views, gather by translation --- *)

(* Resolve a composite epoch_vector (per-shard epochs + mapping
   version, the shape {!epoch_vector} reports) into the frozen mapping
   and the K frozen shard views -- the live state, the retention rings,
   then the pin tables.  Everything resolved is immutable, so the as-of
   query runs without touching the live read plane. *)
let resolve_at t ev =
  if Array.length ev <> t.k + 1 then
    invalid_arg
      (Printf.sprintf "Sharded_index: epoch_vector has %d entries, want %d (K shards + mapping)"
         (Array.length ev) (t.k + 1));
  let version = ev.(t.k) in
  let m =
    let cur = Atomic.get t.mapping in
    if cur.m_version = version then Some cur
    else
      match List.find_opt (fun m -> m.m_version = version) (Atomic.get t.map_ring) with
      | Some _ as hit -> hit
      | None -> (
        match
          List.find_opt (fun (_, m) -> m.m_version = version) (Atomic.get t.pinned_maps)
        with
        | Some (_, m) -> Some m
        | None -> None)
  in
  match m with
  | None ->
    invalid_arg
      (Printf.sprintf "Sharded_index: mapping version %d is not retained or pinned" version)
  | Some m ->
    let views =
      Array.init t.k (fun s ->
          match Di.view_at t.idxs.(s) ~epoch:ev.(s) with
          | Some v -> v
          | None ->
            invalid_arg
              (Printf.sprintf "Sharded_index: shard %d epoch %d is not retained or pinned" s
                 ev.(s)))
    in
    (m, views)

(* Run [f] against shard [s] as the (possibly as-of) resolution
   dictates: the reader pool / live view when [at] is [None], the
   frozen view otherwise. *)
let q_at t at s f =
  match at with None -> Di.query t.idxs.(s) f | Some (_, views) -> f (views : Di.view array).(s)

let mapping_at t at = match at with None -> Atomic.get t.mapping | Some (m, _) -> m

(* At K = 1 global ids are shard 0's ids and no migration copy exists,
   so shard 0's view answers as is: [count] through the index's own
   counter, hits with no translation, and no mapping read at all. *)

let search ?epoch_vector t p =
  check_open t;
  if p = "" then invalid_arg "Dynamic_index: empty pattern";
  Obs.incr c_scatter;
  let t0 = Obs.start () in
  let at = Option.map (resolve_at t) epoch_vector in
  let hits =
    if t.k = 1 then q_at t at 0 (fun v -> Di.view_search v p)
    else begin
      let m = mapping_at t at in
      let acc = ref [] in
      for s = 0 to t.k - 1 do
        let l2g = m.m_l2g.(s) in
        q_at t at s (fun v ->
            Di.view_iter_matches v p ~f:(fun ~doc ~off ->
                match Imap.find_opt doc l2g with
                | Some g -> acc := (g, off) :: !acc
                | None -> () (* unpublished in-flight copy: not yet visible *)))
      done;
      List.sort compare !acc
    end
  in
  Obs.stop h_gather_ns t0;
  hits

let count ?epoch_vector t p =
  check_open t;
  if p = "" then invalid_arg "Dynamic_index: empty pattern";
  Obs.incr c_scatter;
  let t0 = Obs.start () in
  let at = Option.map (resolve_at t) epoch_vector in
  let n =
    if t.k = 1 then q_at t at 0 (fun v -> Di.view_count v p)
    else begin
      let m = mapping_at t at in
      let n = ref 0 in
      for s = 0 to t.k - 1 do
        let l2g = m.m_l2g.(s) in
        q_at t at s (fun v ->
            Di.view_iter_matches v p ~f:(fun ~doc ~off:_ -> if Imap.mem doc l2g then incr n))
      done;
      !n
    end
  in
  Obs.stop h_gather_ns t0;
  n

let extract ?epoch_vector t ~doc ~off ~len =
  check_open t;
  let at = Option.map (resolve_at t) epoch_vector in
  if t.k = 1 then q_at t at 0 (fun v -> Di.view_extract v ~doc ~off ~len)
  else
    match Imap.find_opt doc (mapping_at t at).m_g2p with
    | None -> None
    | Some { pl_shard = s; pl_local = l } ->
      q_at t at s (fun v -> Di.view_extract v ~doc:l ~off ~len)

let mem ?epoch_vector t id =
  check_open t;
  let at = Option.map (resolve_at t) epoch_vector in
  if t.k = 1 then q_at t at 0 (fun v -> Di.view_mem v id)
  else
    let m = mapping_at t at in
    match Imap.find_opt id m.m_g2p with
    | None -> false
    | Some { pl_shard = s; pl_local = l } ->
      Imap.mem l m.m_l2g.(s) && q_at t at s (fun v -> Di.view_mem v l)

let doc_count t = Array.fold_left (fun acc idx -> acc + Di.doc_count idx) 0 t.idxs
let total_symbols t = Array.fold_left (fun acc idx -> acc + Di.total_symbols idx) 0 t.idxs

let describe t =
  Printf.sprintf "sharded(K=%d) over %s" t.k (if t.k = 0 then "-" else Di.describe t.idxs.(0))

let drain t = Array.iter Di.drain t.idxs

(* --- mutations: one batched write path --- *)

(* Placements and migrations reach the meta log before any shard write
   (store mode), one fsync for the group. *)
let log_meta t evs =
  match t.backing with Store { meta = Some mt; _ } when evs <> [] -> meta_append mt evs | _ -> ()

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

(* How one op of a batch resolves. *)
type plan = P_insert of int * int (* shard, global id *) | P_delete of int | P_dead_delete

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
  (* plan the whole batch against a working copy of the mapping, so a
     delete later in the batch sees inserts earlier in it *)
  let m0 = Atomic.get t.mapping in
  let g2p = ref m0.m_g2p in
  let l2g = Array.copy m0.m_l2g in
  let next_g = ref m0.m_next_global in
  let queued = Array.make t.k 0 in
  let per_shard = Array.make t.k [] in
  let metas = ref [] in
  let plan =
    List.map
      (fun op ->
        match op with
        | Trace.Insert _ ->
          let g = !next_g in
          next_g := g + 1;
          let s = route t.k g in
          let l = t.ins_total.(s) + queued.(s) in
          queued.(s) <- queued.(s) + 1;
          if t.k > 1 then begin
            g2p := Imap.add g { pl_shard = s; pl_local = l } !g2p;
            l2g.(s) <- Imap.add l g l2g.(s);
            metas := Ev_insert (g, s) :: !metas
          end;
          per_shard.(s) <- op :: per_shard.(s);
          P_insert (s, g)
        | Trace.Delete id -> (
          match placement ~k:t.k !g2p !next_g id with
          | None -> P_dead_delete
          | Some { pl_shard = s; pl_local = l } ->
            l2g.(s) <- Imap.remove l l2g.(s);
            (* the shard speaks local ids: apply (and log) the
               translated delete, not the global one *)
            per_shard.(s) <- Trace.Delete l :: per_shard.(s);
            P_delete s)
        | _ -> assert false)
      ops
  in
  (* log-ahead, group committed: all placements reach the meta log
     (one fsync) before any shard write; then one group commit per
     shard *)
  log_meta t (List.rev !metas);
  let results = Array.make t.k [] in
  (try
     Array.iteri
       (fun s ops_rev -> if ops_rev <> [] then results.(s) <- shard_apply t s (List.rev ops_rev))
       per_shard
   with e ->
     t.poisoned <- true;
     raise e);
  (* stitch shard results back into op order; inserts report global ids *)
  let next s =
    match results.(s) with
    | r :: rest ->
      results.(s) <- rest;
      r
    | [] ->
      t.poisoned <- true;
      failwith "Sharded_index.apply_batch: shard result misalignment"
  in
  let out =
    List.map
      (function
        | P_dead_delete -> Subject.Br_deleted false
        | P_insert (s, g) ->
          ignore (next s);
          Obs.incr c_inserts;
          Subject.Br_inserted g
        | P_delete s ->
          let r = next s in
          if r = Subject.Br_deleted true then Obs.incr c_deletes;
          r)
      plan
  in
  Array.iteri (fun s q -> t.ins_total.(s) <- t.ins_total.(s) + q) queued;
  publish t { m_g2p = !g2p; m_l2g = l2g; m_next_global = !next_g; m_version = m0.m_version + 1 };
  out

let insert t text =
  match apply_batch t [ Trace.Insert text ] with [ Subject.Br_inserted g ] -> g | _ -> assert false

let delete t id =
  match apply_batch t [ Trace.Delete id ] with [ Subject.Br_deleted ok ] -> ok | _ -> assert false

(* --- consistency probes --- *)

let shard_of t id =
  let m = Atomic.get t.mapping in
  match placement ~k:t.k m.m_g2p m.m_next_global id with
  | Some { pl_shard; _ } -> Some pl_shard
  | None -> None

let epoch_vector t =
  Array.init (t.k + 1) (fun s ->
      if s = t.k then (Atomic.get t.mapping).m_version
      else Di.view_epoch (Di.view t.idxs.(s)))

let wal_serials t =
  match t.backing with
  | Mem -> Array.make t.k 0
  | Store { stores; _ } -> Array.map Durable.wal_serial stores


(* --- pinned epoch-vector backups --- *)

type pin_kind = Pk_mem of Di.pin array | Pk_store of Durable.pin array
type pin = { sp_token : int; sp_vector : int array; sp_kind : pin_kind }

(* Pin all K shards plus the mapping at one update boundary: the pinned
   state is exactly what the composite epoch_vector names, and it stays
   resolvable (as-of queries, backup) however far retention evicts. *)
let pin t =
  check_open t;
  let m = Atomic.get t.mapping in
  let kind =
    match t.backing with
    | Mem -> Pk_mem (Array.map Di.pin t.idxs)
    | Store { stores; _ } -> Pk_store (Array.map Durable.pin stores)
  in
  let vector =
    Array.init (t.k + 1) (fun s ->
        if s = t.k then m.m_version
        else
          match kind with
          | Pk_mem pins -> Di.pin_epoch pins.(s)
          | Pk_store pins -> Durable.pin_epoch pins.(s))
  in
  let token = Atomic.fetch_and_add t.pin_next 1 in
  Atomic.set t.pinned_maps ((token, m) :: Atomic.get t.pinned_maps);
  { sp_token = token; sp_vector = vector; sp_kind = kind }

let pin_epoch_vector p = Array.copy p.sp_vector

let unpin t p =
  (match (p.sp_kind, t.backing) with
  | Pk_mem pins, _ -> Array.iteri (fun s pn -> Di.unpin t.idxs.(s) pn) pins
  | Pk_store pins, Store { stores; _ } ->
    Array.iteri (fun s pn -> Durable.unpin stores.(s) pn) pins
  | Pk_store _, Mem -> ());
  Atomic.set t.pinned_maps
    (List.filter (fun (tok, _) -> tok <> p.sp_token) (Atomic.get t.pinned_maps))

let backup t p ~dest =
  check_open t;
  match (t.backing, p.sp_kind) with
  | Store { stores; meta; _ }, Pk_store pins ->
    Dsdg_store.Snapshot.ensure_dir dest;
    Array.iteri
      (fun s pn -> ignore (Durable.backup stores.(s) pn ~dest:(shard_dir ~k:t.k dest s)))
      pins;
    (* The meta log is copied whole.  The pin froze every shard at one
       update boundary, so events beyond the pin consume local ids past
       the pinned totals and recovery's reconciliation drops exactly
       that tail -- the copy recovers to the pinned prefix. *)
    Option.iter
      (fun mt ->
        let raw = In_channel.with_open_bin mt.mt_path In_channel.input_all in
        Out_channel.with_open_bin (meta_file ~dir:dest) (fun oc ->
            Out_channel.output_string oc raw))
      meta;
    dest
  | _ -> invalid_arg "Sharded_index.backup: store-backed sharded indexes only"

(* --- replication surface --- *)

let backing_stores t =
  match t.backing with Mem -> None | Store { stores; _ } -> Some stores

let meta_records t =
  match t.backing with Store { meta = Some mt; _ } -> Atomic.get mt.mt_records | _ -> 0

let indexes t = t.idxs

(* --- follower replay surface --- *)

(* Apply one shipped meta line: append it to the local meta log first
   (the leader's meta-before-shard-WAL group-commit discipline, so a
   killed follower recovers by the same reconciliation) and queue the
   placement until the matching shard WAL record binds the global id. *)
let replica_meta t line =
  check_open t;
  match t.backing with
  | Mem -> invalid_arg "Sharded_index.replica_meta: store-backed indexes only"
  | Store { meta = None; _ } -> invalid_arg "Sharded_index.replica_meta: K = 1 keeps no meta log"
  | Store { meta = Some mt; _ } -> (
    match ev_of_line line with
    | None -> invalid_arg (Printf.sprintf "Sharded_index.replica_meta: bad record %S" line)
    | Some ev ->
      let dst = match ev with Ev_insert (_, s) -> s | Ev_migrate (_, _, d) -> d in
      if dst < 0 || dst >= t.k then
        invalid_arg "Sharded_index.replica_meta: shard out of range";
      meta_append mt [ ev ];
      Queue.add ev t.repl_pending.(dst))

(* Apply one shipped shard WAL record through the replica's own durable
   store (identical serials leader/follower, so the replica is itself
   recoverable and promotable), then fold the effect into the mapping.

   Returns [false] when the record cannot be applied YET -- its
   cross-shard prerequisite has not arrived: an insert whose placement
   event is still in flight on the meta stream, or a migration copy
   whose document is not yet bound at the source shard because the
   original insert rides another shard's stream.  The caller must
   retry the same record (per-shard streams replay strictly in serial
   order) after making progress elsewhere; prerequisites follow the
   leader's temporal order, so the dependency graph is acyclic and a
   record that stays unappliable forever is a divergence, surfacing as
   replication lag that never drains.  K > 1 only ([replica_ops]). *)
let replica_op t ~shard op =
  match t.backing with
  | Mem -> invalid_arg "Sharded_index.replica_op: store-backed indexes only"
  | Store { stores; _ } -> (
    let apply text =
      let l = Durable.insert stores.(shard) text in
      t.ins_total.(shard) <- t.ins_total.(shard) + 1;
      (l, Atomic.get t.mapping)
    in
    let place g text =
      let l, m = apply text in
      publish t
        {
          m_g2p = Imap.add g { pl_shard = shard; pl_local = l } m.m_g2p;
          m_l2g = set_l2g m shard (Imap.add l g m.m_l2g.(shard));
          m_next_global = max m.m_next_global (g + 1);
          m_version = m.m_version + 1;
        };
      Obs.incr c_inserts;
      true
    in
    match op with
    | Trace.Insert text -> (
      match Queue.peek_opt t.repl_pending.(shard) with
      | None -> false (* placement still in flight on the meta stream *)
      | Some (Ev_insert (g, s)) ->
        if s <> shard then failwith "Sharded_index.replica_op: placement/shard mismatch";
        ignore (Queue.pop t.repl_pending.(shard));
        place g text
      | Some (Ev_migrate (g, src, dst)) -> (
        if dst <> shard then failwith "Sharded_index.replica_op: placement/shard mismatch";
        match Imap.find_opt g (Atomic.get t.mapping).m_g2p with
        | Some { pl_shard; pl_local } when pl_shard = src ->
          ignore (Queue.pop t.repl_pending.(shard));
          let l, m = apply text in
          (* the one atomic flip: visibility moves src -> dst; the
             source retirement arrives later as a plain delete *)
          let l2g = Array.copy m.m_l2g in
          l2g.(src) <- Imap.remove pl_local l2g.(src);
          l2g.(dst) <- Imap.add l g l2g.(dst);
          publish t
            {
              m with
              m_g2p = Imap.add g { pl_shard = dst; pl_local = l } m.m_g2p;
              m_l2g = l2g;
              m_version = m.m_version + 1;
            };
          Obs.incr c_migrations;
          true
        | _ -> false (* the source binding rides another shard's stream *)))
    | Trace.Delete l ->
      let m = Atomic.get t.mapping in
      (match Imap.find_opt l m.m_l2g.(shard) with
      | Some _ ->
        ignore (Durable.delete stores.(shard) l);
        publish t
          {
            m with
            m_l2g = set_l2g m shard (Imap.remove l m.m_l2g.(shard));
            m_version = m.m_version + 1;
          };
        Obs.incr c_deletes
      | None ->
        (* migration-source retirement (visibility already flipped) or
           a dead-id replay: shard-local effect only *)
        ignore (Durable.delete stores.(shard) l));
      true
    | _ ->
      invalid_arg
        (Printf.sprintf "Sharded_index.replica_op: %S is not a mutation" (Trace.op_to_string op)))

(* Drain the head of shard [shard]'s queue of shipped WAL records as
   far as their prerequisites allow; returns how many were applied.
   K = 1 logs no placements and has no prerequisites: the whole queue
   lands as one group commit of the replica's store (one fsync, as on
   the leader), the k-th insert binding global id k, which the mapping
   keeps as its next id only. *)
let replica_ops t ~shard q =
  check_open t;
  if shard < 0 || shard >= t.k then invalid_arg "Sharded_index.replica_ops: shard out of range";
  match t.backing with
  | Store { stores; meta = None; _ } when not (Queue.is_empty q) ->
    let ops = List.of_seq (Queue.to_seq q) in
    Queue.clear q;
    List.iter
      (function
        | Subject.Br_inserted _ ->
          t.ins_total.(0) <- t.ins_total.(0) + 1;
          Obs.incr c_inserts
        | Subject.Br_deleted ok -> if ok then Obs.incr c_deletes)
      (Durable.apply_batch stores.(0) ops);
    let m = Atomic.get t.mapping in
    publish t { m with m_next_global = t.ins_total.(0); m_version = m.m_version + 1 };
    List.length ops
  | _ ->
    let n = ref 0 in
    while (not (Queue.is_empty q)) && replica_op t ~shard (Queue.peek q) do
      ignore (Queue.pop q);
      incr n
    done;
    !n

(* Follower of a leader without a meta log (K = 1) that compacted past
   the replica's position: replace the shard store by the shipped
   snapshot (close, wipe, install, reopen with the store's own
   settings) and rebind the mapping from it; the stream resumes at the
   snapshot's serial.  A query running meanwhile (a read-only server's
   connection thread, no lock) reads only [t.idxs.(0)]'s view at K = 1,
   and a closed index still answers from its last published view, so
   it answers as of before the re-seed or after it.  With K > 1 a
   per-shard snapshot would disagree with the meta prefix, so only a
   pinned backup can re-seed. *)
let replica_snapshot t ~serial ~bytes =
  check_open t;
  match t.backing with
  | Store { dir; stores; meta = None; config; index } ->
    Durable.close stores.(0);
    Durable.install_snapshot ~dir ~serial bytes;
    stores.(0) <- fst (Durable.open_ ~config ~index ~dir ());
    t.idxs.(0) <- Durable.index stores.(0);
    let m, totals, _, _ = reconcile ~path:(meta_file ~dir) stores [] in
    t.ins_total.(0) <- totals.(0);
    publish t { m with m_version = (Atomic.get t.mapping).m_version + 1 }
  | _ -> failwith "replica fell behind leader compaction; re-seed it from a pinned backup"

(* Every stream's next position: the shard WAL serials, then the meta
   events already bound to a shard record -- on a replica a placement
   still waiting for its record does not count, so equal positions
   leader/replica mean nothing is in flight. *)
let stream_positions t =
  let unbound = Array.fold_left (fun n q -> n + Queue.length q) 0 t.repl_pending in
  Array.append (wal_serials t) [| meta_records t - unbound |]

(* --- rebalancing --- *)

(* Full text of a live local doc, through the index itself: documents
   have unknown length, so find it by doubling + binary search on
   extract acceptance. *)
let doc_text idx l =
  let ok len = Di.extract idx ~doc:l ~off:0 ~len <> None in
  if not (ok 0) then None
  else begin
    let hi = ref 1 in
    while ok !hi do
      hi := !hi * 2
    done;
    (* largest accepted length is in [hi/2, hi) *)
    let lo = ref (!hi / 2) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if ok mid then lo := mid else hi := mid
    done;
    Di.extract idx ~doc:l ~off:0 ~len:!lo
  end

let rebalance ?(hook = fun _ -> ()) t ~src ~dst ~docs =
  check_open t;
  if src < 0 || src >= t.k || dst < 0 || dst >= t.k then
    invalid_arg "Sharded_index.rebalance: shard out of range";
  if src = dst then invalid_arg "Sharded_index.rebalance: src = dst";
  let step = ref 0 in
  let pt () =
    hook !step;
    incr step
  in
  let moved = ref 0 in
  List.iter
    (fun g ->
      let m = Atomic.get t.mapping in
      match Imap.find_opt g m.m_g2p with
      | Some { pl_shard; pl_local } when pl_shard = src && Imap.mem pl_local m.m_l2g.(src) -> (
        match doc_text t.idxs.(src) pl_local with
        | None -> () (* died under us; nothing to move *)
        | Some text ->
          pt ();
          (* 1. intent record, durable before any shard write *)
          log_meta t [ Ev_migrate (g, src, dst) ];
          pt ();
          (* 2. the destination copy, through the WAL *)
          let l' =
            match shard_apply t dst [ Trace.Insert text ] with
            | [ Subject.Br_inserted l' ] -> l'
            | _ -> assert false
          in
          t.ins_total.(dst) <- t.ins_total.(dst) + 1;
          pt ();
          (* 3. one atomic publish flips visibility src -> dst *)
          let m = Atomic.get t.mapping in
          let l2g = Array.copy m.m_l2g in
          l2g.(src) <- Imap.remove pl_local l2g.(src);
          l2g.(dst) <- Imap.add l' g l2g.(dst);
          publish t
            {
              m with
              m_g2p = Imap.add g { pl_shard = dst; pl_local = l' } m.m_g2p;
              m_l2g = l2g;
              m_version = m.m_version + 1;
            };
          (* 4. retire the source copy, through the WAL *)
          ignore (shard_apply t src [ Trace.Delete pl_local ]);
          pt ();
          incr moved;
          Obs.incr c_migrations)
      | _ -> ())
    docs;
  !moved

let rebalance_hottest t =
  if t.k < 2 then 0
  else begin
    let sym s = Di.total_symbols t.idxs.(s) in
    let src = ref 0 and dst = ref 0 in
    for s = 1 to t.k - 1 do
      if sym s > sym !src then src := s;
      if sym s < sym !dst then dst := s
    done;
    if !src = !dst then 0
    else begin
      let m = Atomic.get t.mapping in
      let live = List.rev (Imap.fold (fun _l g acc -> g :: acc) m.m_l2g.(!src) []) in
      let take = (List.length live + 1) / 2 in
      let docs = List.filteri (fun i _ -> i < take) live in
      rebalance t ~src:!src ~dst:!dst ~docs
    end
  end

(* --- lifecycle --- *)

let checkpoint t =
  check_open t;
  match t.backing with Mem -> () | Store { stores; _ } -> Array.iter Durable.checkpoint stores

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.backing with
    | Mem -> Array.iter Di.close t.idxs
    | Store { stores; meta; _ } ->
      Array.iter Durable.close stores;
      Option.iter (fun mt -> close_out_noerr mt.mt_oc) meta
  end

let kill t ~torn =
  if not t.closed then begin
    t.closed <- true;
    match t.backing with
    | Mem -> Array.iter Di.close t.idxs
    | Store { stores; meta; _ } ->
      Array.iter (fun st -> Durable.kill st ~torn) stores;
      Option.iter (fun mt -> close_out_noerr mt.mt_oc) meta
  end

(* --- the sharded collection as a subject --- *)

(* One replication poll: the meta stream, or shard k's WAL as ["walk"].
   The meta stream's shipping bound is its published event count:
   events are fsynced at append under any policy but Never, mirroring
   the WAL durable bound's Never degradation. *)
let repl t ~stream ~from =
  match t.backing with
  | Mem -> Subject.Rp_error "an in-memory index has no replication streams"
  | Store { stores; meta; _ } -> (
    match (stream, meta) with
    | "meta", Some mt ->
      let bound = Atomic.get mt.mt_records and lo = max 0 from in
      let log = mt.mt_log in
      let recs = List.init (max 0 (bound - lo)) (fun i -> (lo + i, ev_to_line log.(lo + i))) in
      Subject.Rp_recs { recs; bound; epoch = (Atomic.get t.mapping).m_version }
    | _ -> (
      match
        if String.length stream > 3 && String.sub stream 0 3 = "wal" then
          int_of_string_opt (String.sub stream 3 (String.length stream - 3))
        else None
      with
      | Some k when k >= 0 && k < t.k -> (
        match (Durable.ship stores.(k) ~from, meta) with
        | Subject.Rp_snapshot _, Some _ ->
          (* per-shard snapshots are not mutually consistent with a meta
             prefix; only a pinned backup is *)
          Subject.Rp_error
            (Printf.sprintf
               "shard %d compacted past position %d; seed the replica from a pinned backup" k from)
        | reply, _ -> reply)
      | _ -> Subject.Rp_error (Printf.sprintf "unknown stream %S" stream)))

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
      let c = (Subject.of_index ~views:true ~name:"" idx).check in
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
