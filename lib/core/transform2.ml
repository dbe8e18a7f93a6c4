(* Transformation 2 (Section 3): static index -> fully-dynamic index with
   worst-case update bounds.

   On top of Transformation 1's layout this adds:

   - locked copies: when C_j must be merged upward it is renamed L_j and a
     fresh empty C_j takes its place; L_j keeps answering queries;
   - background construction: the new N_{j+1} = L_j ∪ C_{j+1} ∪ {T} is a
     background job.  In the default Sync mode (jobs = 0) it is an
     Incremental job: every subsequent update steps all pending jobs by a
     budget proportional to the update's size (work_factor * |T|), which is
     the paper's "O(log^eps n * u(n)) time per symbol" accounting.  With
     jobs >= 1 the build runs on a Dsdg_exec.Executor worker domain
     instead: updates merely poll for finished results and install them
     at exactly the same points, so the Dietz-Sleator schedule and the
     max_j capacity invariants are enforced unchanged while construction
     work leaves the update critical path;
   - Temp_{j+1}: a single-document index for the new text so it is
     queryable while N_{j+1} is under construction (Figure 3);
   - top collections T_1..T_g holding the bulk of the data (never the
     target of insertions once finished), cleaned by the Dietz-Sleator
     schedule: after every delta = nf/(2 tau log tau) deleted symbols, the
     top with the most dead symbols is rebuilt in the background (Lemma 1
     bounds every top's dead fraction by O(1/tau)).  A top built below
     the grain nf/tau also absorbs the smallest other tops (the merge
     rule, [merge_partners]), which keeps the number of tops within
     2 tau + 2 under churn -- an engineering addition (DESIGN.md,
     "Bounded top collections");
   - oversized documents (|T| >= nf/tau) get their own top collection.

   Deviations (documented in DESIGN.md): the L'_r staging collection is
   folded into the generic top-construction path; the nf-resnapshot
   restructure runs synchronously (a rare amortized event); and if an
   update needs a slot whose background job has not finished, the job is
   force-completed (counted in the [forced] counter -- the paper's
   scheduling lemma makes this rare, and the counter lets benches verify
   that).

   All scheduling-health accounting (counters, per-update latency
   histograms, purge-time dead fractions, the structural event trace)
   goes through the shared Dsdg_obs.Obs layer; [stats] is a read-only
   view assembled from those counters. *)

open Dsdg_incr
open Dsdg_obs

(* Read-only snapshot of the scheduling counters (all maintained in the
   instance's Obs scope; see [obs]). *)
type stats = {
  jobs_started : int;
  jobs_completed : int;
  forced : int;
  restructures : int;
  top_cleanings : int;
  sync_merges : int;
  max_job_step : int; (* largest single-update job work, for the worst-case claim *)
  crash_fallbacks : int; (* pooled jobs that failed and were rebuilt synchronously *)
}

module Make (I : Static_index.S) = struct
  module SS = Semi_static.Make (I)
  module Exec = Dsdg_exec.Executor

  let max_slots = 64

  (* Job slots past the levels: [top_slot] builds a new top (a C_r flush
     or a purge of C_r), [clean_slot] runs the Dietz-Sleator cleaning.
     Each has its own slot, so flushing C_r never has to land a cleaning
     that is still in flight. *)
  let top_slot = max_slots + 1
  let clean_slot = max_slots + 2

  (* The geometric schedule's exponent: max_j grows by log^eps nf per
     level (Section 3 uses Transformation 1's sizes). *)
  let epsilon = 0.5

  (* How a background job is being run: [Incr] is the cooperative
     effects-based realization stepped inside updates (the only mode
     when [jobs = 0], bit-for-bit the pre-executor behaviour); [Pooled]
     is a handle into the domain-pool executor plus the same build
     closure kept caller-side, so a crashed worker can be recovered by
     rebuilding synchronously in place. *)
  type job_run =
    | Incr of SS.t Incremental.t
    | Pooled of { handle : SS.t Exec.handle; builder : (unit -> unit) -> SS.t }

  type job = {
    run : job_run;
    target : [ `Sub of int | `Top of int list | `Replace_top of int * int list ];
        (* [`Top merged]: a new top, absorbing the small tops [merged];
           [`Replace_top (key, merged)]: the cleaned top [key] and the
           small tops [merged], rebuilt as one top [key] *)
    frees_locked : int option; (* level whose L_j this job consumes; 0 = L0 *)
    mutable deleted_during : int list;
  }

  type t = {
    sample : int;
    tau : int;
    work_factor : int;
    mutable c0 : Doc_buffer.t;
    mutable l0 : Doc_buffer.t option;
    subs : SS.t option array; (* C_1..C_r *)
    locked : SS.t option array; (* L_1..L_r *)
    temps : SS.t option array; (* Temp_1..Temp_{r+1} *)
    jobs : job option array; (* index j: builds the new C_j (or a top for j=r+1) *)
    mutable tops : (int * SS.t) list;
    mutable next_top_key : int;
    mutable next_id : int;
    mutable nf : int;
    mutable live : int;
    mutable doc_count : int;
    mutable del_counter : int; (* deleted symbols since last top-clean dispatch *)
    fault : Index_config.fault option;
    exec : Exec.t option; (* None = Sync mode: jobs stepped cooperatively *)
    published : Epoch_view.publisher; (* the read plane *)
    obs : Obs.scope;
    c_jobs_started : Obs.counter;
    c_jobs_completed : Obs.counter;
    c_forced : Obs.counter;
    c_restructures : Obs.counter;
    c_top_cleanings : Obs.counter;
    c_sync_merges : Obs.counter;
    c_crash_fallbacks : Obs.counter;
    c_inserts : Obs.counter;
    c_deletes : Obs.counter;
    g_max_job_step : Obs.gauge;
    h_insert_ns : Obs.histogram;
    h_delete_ns : Obs.histogram;
    h_merge_ns : Obs.histogram; (* synchronous carry-propagation merges inside insert *)
    h_purge_dead_frac : Obs.histogram; (* per-mille dead fraction at purge/clean time *)
  }

  let create ?(work_factor = 64) ({ sample; tau; fault; jobs; _ } : Index_config.t) =
    let obs = Obs.private_scope ("transform2/" ^ I.name) in
    {
      fault;
      exec = (if jobs > 0 then Some (Exec.create ~obs ~workers:jobs ()) else None);
      published = Epoch_view.publisher obs;
      sample;
      tau;
      work_factor;
      c0 = Doc_buffer.create ();
      l0 = None;
      subs = Array.make (max_slots + 2) None;
      locked = Array.make (max_slots + 2) None;
      temps = Array.make (max_slots + 2) None;
      jobs = Array.make (clean_slot + 1) None;
      tops = [];
      next_top_key = 0;
      next_id = 0;
      nf = 256;
      live = 0;
      doc_count = 0;
      del_counter = 0;
      obs;
      c_jobs_started = Obs.counter obs "jobs_started";
      c_jobs_completed = Obs.counter obs "jobs_completed";
      c_forced = Obs.counter obs "forced";
      c_restructures = Obs.counter obs "restructures";
      c_top_cleanings = Obs.counter obs "top_cleanings";
      c_sync_merges = Obs.counter obs "sync_merges";
      c_crash_fallbacks = Obs.counter obs "crash_fallbacks";
      c_inserts = Obs.counter obs "inserts";
      c_deletes = Obs.counter obs "deletes";
      g_max_job_step = Obs.gauge obs "max_job_step";
      h_insert_ns = Obs.histogram obs "insert_ns";
      h_delete_ns = Obs.histogram obs "delete_ns";
      h_merge_ns = Obs.histogram obs "sync_merge_ns";
      h_purge_dead_frac = Obs.histogram obs "purge_dead_permille";
    }

  let obs t = t.obs
  let events t = List.map (fun (_, e) -> Obs.event_to_string e) (Obs.recent t.obs)

  let stats t =
    {
      jobs_started = Obs.value t.c_jobs_started;
      jobs_completed = Obs.value t.c_jobs_completed;
      forced = Obs.value t.c_forced;
      restructures = Obs.value t.c_restructures;
      top_cleanings = Obs.value t.c_top_cleanings;
      sync_merges = Obs.value t.c_sync_merges;
      max_job_step = Obs.gauge_value t.g_max_job_step;
      crash_fallbacks = Obs.value t.c_crash_fallbacks;
    }

  let doc_count t = t.doc_count
  let total_symbols t = t.live
  let describe _ = "transform2/" ^ I.name

  (* Read-only introspection for the differential checker (Dsdg_check). *)
  let nf t = t.nf

  let max_size t j =
    let nff = float_of_int (max t.nf 256) in
    let lg = max 2. (log nff /. log 2.) in
    let base = 2. *. nff /. (lg *. lg) in
    max 64 (int_of_float (base *. (lg ** (epsilon *. float_of_int j))))

  (* r: first level whose capacity reaches the top-collection grain nf/tau. *)
  let r_of t =
    let target = max 64 (t.nf / t.tau) in
    let rec go j = if j >= max_slots || max_size t j >= target then j else go (j + 1) in
    go 1

  let top_grain t = max 64 (t.nf / t.tau)
  let level_capacity t j = max_size t j

  let sub_live t j = match t.subs.(j) with None -> 0 | Some ss -> SS.live_symbols ss

  (* --- job management --- *)

  let build_ss t ?tick docs =
    SS.build ?tick ~sample:t.sample ~tau:t.tau (Array.of_list docs)

  let target_name = function
    | `Sub jj -> Printf.sprintf "N%d" jj
    | `Top [] -> "new top"
    | `Top merged ->
      Printf.sprintf "new top merging %s" (String.concat "," (List.map (Printf.sprintf "T%d") merged))
    | `Replace_top (key, []) -> Printf.sprintf "rebuilt T%d" key
    | `Replace_top (key, merged) ->
      Printf.sprintf "rebuilt T%d merging %s" key
        (String.concat "," (List.map (Printf.sprintf "T%d") merged))

  let drop_tops t keys = t.tops <- List.filter (fun (k, _) -> not (List.mem k keys)) t.tops

  (* Keys of the tops an in-flight job is rebuilding: no second job may
     take them. *)
  let busy_tops t =
    Array.fold_left
      (fun acc -> function
        | Some { target = `Replace_top (k, merged); _ } -> (k :: merged) @ acc
        | Some { target = `Top merged; _ } -> merged @ acc
        | _ -> acc)
      [] t.jobs

  (* The merge rule (DESIGN.md, "Bounded top collections").  A top about
     to be built with [live] symbols below the grain nf/tau also takes the
     smallest idle tops (not in [except], not busy), smallest first, while
     the total stays within 2 grain live symbols.  A top built below the grain
     therefore absorbs every small top that fits, so small tops cannot
     pile up under churn.  Every top build goes through here: cleanings,
     new tops from C_r, and restructures (restore included). *)
  let merge_partners ?(except = []) t ~live =
    let grain = top_grain t in
    if live >= grain then []
    else begin
      let busy = busy_tops t in
      let idle = List.filter (fun (k, _) -> not (List.mem k except || List.mem k busy)) t.tops in
      let rec take total = function
        | (k, ss) :: rest when total + SS.live_symbols ss <= 2 * grain ->
          (k, ss) :: take (total + SS.live_symbols ss) rest
        | _ -> []
      in
      take live
        (List.stable_sort (fun (_, a) (_, b) -> compare (SS.live_symbols a) (SS.live_symbols b)) idle)
    end

  let docs_of_tops ?tick tops = List.concat_map (fun (_, ss) -> SS.live_docs ?tick ss) tops

  (* Wrap a build closure as a job in the current mode.  The planted
     [`Worker_crash] fault sabotages only the worker-side copy (raises
     on the first tick); the caller-side [builder] copy stays intact --
     though the fault's broken drop recovery never runs it. *)
  let make_run t ~name body =
    match t.exec with
    | None -> Incr (Incremental.create body)
    | Some exec ->
      let worker_body tick =
        if t.fault = Some `Worker_crash then begin
          tick ();
          failwith "planted worker crash"
        end;
        body tick
      in
      Pooled { handle = Exec.submit exec ~name worker_body; builder = body }

  let install t j job ss =
    List.iter (fun id -> ignore (SS.delete ss id)) job.deleted_during;
    (match job.frees_locked with
    | Some 0 -> t.l0 <- None
    | Some l -> t.locked.(l) <- None
    | None -> ());
    (match job.target with
    | `Sub jj ->
      t.subs.(jj) <- (if SS.is_empty ss then None else Some ss);
      t.temps.(jj) <- None
    | `Top merged ->
      t.temps.(j) <- None;
      drop_tops t merged;
      if not (SS.is_empty ss) then begin
        let key = t.next_top_key in
        t.next_top_key <- key + 1;
        t.tops <- (key, ss) :: t.tops
      end
    | `Replace_top (key, merged) ->
      drop_tops t (key :: merged);
      if not (SS.is_empty ss) then t.tops <- (key, ss) :: t.tops);
    Obs.record t.obs
      (Obs.Install { slot = j; target = target_name job.target; live = SS.live_symbols ss });
    t.jobs.(j) <- None;
    Obs.incr t.c_jobs_completed

  (* Recovery for a pooled job whose worker raised (or was cancelled):
     the owner rebuilds synchronously in place with the very closure the
     worker was running, then installs normally -- queries never observe
     a gap because the locked sources stayed queryable the whole time.
     Under the planted [`Worker_crash] fault the recovery is deliberately
     broken: the job is discarded wholesale (locked source, Temp and --
     for a cleaning job -- every top being rebuilt all dropped), which
     loses documents and must trip the differential checker. *)
  let crash_recover t j job builder =
    if t.fault = Some `Worker_crash then begin
      (match job.frees_locked with
      | Some 0 -> t.l0 <- None
      | Some l -> t.locked.(l) <- None
      | None -> ());
      (match job.target with
      | `Sub jj -> t.temps.(jj) <- None
      | `Top merged ->
        t.temps.(top_slot) <- None;
        drop_tops t merged
      | `Replace_top (key, merged) -> drop_tops t (key :: merged));
      Obs.record t.obs (Obs.Note (Printf.sprintf "worker crash: job %d dropped" j));
      t.jobs.(j) <- None;
      Obs.incr t.c_jobs_completed
    end
    else begin
      Obs.incr t.c_crash_fallbacks;
      Obs.record t.obs (Obs.Note (Printf.sprintf "worker crash: slot %d rebuilt in place" j));
      let spent = ref 0 in
      let ss = builder (fun () -> incr spent) in
      Obs.set_max t.g_max_job_step !spent;
      Obs.record t.obs (Obs.Job_finish { slot = j; work = !spent });
      install t j job ss
    end

  (* Land a pooled job from its terminal executor state. *)
  let land_pooled t j job handle builder = function
    | `Done ss ->
      Obs.record t.obs (Obs.Job_finish { slot = j; work = Exec.work_spent handle });
      install t j job ss
    | `Failed _ | `Cancelled -> crash_recover t j job builder

  (* A job force-completed during an update counts as [forced] exactly
     once, and the synchronous work it performs still feeds the
     max-single-update-work gauge (the worst-case claim covers forced
     completions too).  Forcing a pooled job awaits the worker (or
     steals the job from the queue and runs it on the caller). *)
  let force_job t j =
    match t.jobs.(j) with
    | None -> ()
    | Some job -> (
      Obs.incr t.c_forced;
      Obs.record t.obs (Obs.Job_force { slot = j });
      match job.run with
      | Incr task ->
        let before = Incremental.work_spent task in
        let ss = Incremental.force task in
        let spent = Incremental.work_spent task - before in
        Obs.set_max t.g_max_job_step spent;
        Obs.record t.obs (Obs.Job_finish { slot = j; work = Incremental.work_spent task });
        install t j job ss
      | Pooled { handle; builder } ->
        let exec = Option.get t.exec in
        land_pooled t j job handle builder (Exec.await exec handle))

  (* Step every pending cooperative job by a budget proportional to the
     update size; poll every pooled job and install the finished ones.
     Under the planted [`Worker_crash] fault pooled jobs are awaited
     instead of polled so the (deliberately broken) recovery lands at a
     deterministic point in the op stream -- shrinking and replay of the
     fault would otherwise be timing-dependent. *)
  let pump t work =
    let budget = max 1 (t.work_factor * work) in
    for j = 0 to clean_slot do
      match t.jobs.(j) with
      | None -> ()
      | Some job -> (
        match job.run with
        | Incr task -> (
          let before = Incremental.work_spent task in
          match Incremental.step task ~budget with
          | `Done ss ->
            let spent = Incremental.work_spent task - before in
            Obs.set_max t.g_max_job_step spent;
            Obs.record t.obs (Obs.Job_step { slot = j; work = spent });
            Obs.record t.obs (Obs.Job_finish { slot = j; work = Incremental.work_spent task });
            install t j job ss
          | `More ->
            let spent = Incremental.work_spent task - before in
            Obs.set_max t.g_max_job_step spent;
            Obs.record t.obs (Obs.Job_step { slot = j; work = spent }))
        | Pooled { handle; builder } -> (
          let exec = Option.get t.exec in
          if t.fault = Some `Worker_crash then
            land_pooled t j job handle builder (Exec.await exec handle)
          else
            match Exec.poll exec handle with
            | `Pending -> ()
            | (`Done _ | `Failed _ | `Cancelled) as terminal ->
              land_pooled t j job handle builder terminal))
    done

  let register_deletion_with_jobs t id =
    for j = 0 to clean_slot do
      match t.jobs.(j) with
      | None -> ()
      | Some job -> job.deleted_during <- id :: job.deleted_during
    done

  let start_job t j job =
    assert (t.jobs.(j) = None);
    Obs.incr t.c_jobs_started;
    Obs.record t.obs (Obs.Job_start { slot = j; target = target_name job.target });
    t.jobs.(j) <- Some job

  (* Every structure that holds documents, C0/L0 first. *)
  let iter_structures t ~fss ~fbuf =
    fbuf t.c0;
    Option.iter fbuf t.l0;
    for j = 1 to max_slots + 1 do
      (match t.subs.(j) with None -> () | Some ss -> fss ss);
      (match t.locked.(j) with None -> () | Some ss -> fss ss);
      match t.temps.(j) with None -> () | Some ss -> fss ss
    done;
    List.iter (fun (_, ss) -> fss ss) t.tops

  (* --- restructuring (nf re-snapshot; synchronous, rare) --- *)

  let dedup docs =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun (id, _) ->
        if Hashtbl.mem seen id then false
        else begin
          Hashtbl.replace seen id ();
          true
        end)
      docs

  let all_docs t =
    let acc = ref [] in
    iter_structures t
      ~fss:(fun ss -> acc := SS.live_docs ss @ !acc)
      ~fbuf:(fun b -> acc := Doc_buffer.docs b @ !acc);
    (* a document can appear both in a Temp and nowhere else; Temps are the
       only queryable holders of their doc, so no dedup is needed except
       defensively *)
    dedup !acc

  (* Greedy partition into top collections of <= 2 nf/tau symbols each
     (oversized documents get their own): the placement of a
     restructure, and so of a restore. *)
  let add_docs_as_tops t docs =
    let grain = 2 * top_grain t in
    let chunk = ref [] and chunk_size = ref 0 in
    let flush () =
      if !chunk <> [] then begin
        let key = t.next_top_key in
        t.next_top_key <- key + 1;
        let merged = merge_partners t ~live:!chunk_size in
        drop_tops t (List.map fst merged);
        t.tops <- (key, build_ss t (!chunk @ docs_of_tops merged)) :: t.tops;
        chunk := [];
        chunk_size := 0
      end
    in
    List.iter
      (fun (id, s) ->
        let len = String.length s + 1 in
        if len >= grain then begin
          let key = t.next_top_key in
          t.next_top_key <- key + 1;
          t.tops <- (key, build_ss t [ (id, s) ]) :: t.tops
        end
        else begin
          if !chunk_size + len > grain then flush ();
          chunk := (id, s) :: !chunk;
          chunk_size := !chunk_size + len
        end)
      docs;
    flush ()

  (* The restructure proper: every live document ([docs]) into fresh
     dead-free tops under nf re-snapshotted to their size. *)
  let rebuild_as_tops t docs =
    Obs.incr t.c_restructures;
    t.c0 <- Doc_buffer.create ();
    t.l0 <- None;
    Array.fill t.subs 0 (Array.length t.subs) None;
    Array.fill t.locked 0 (Array.length t.locked) None;
    Array.fill t.temps 0 (Array.length t.temps) None;
    t.tops <- [];
    let total = List.fold_left (fun a (_, s) -> a + String.length s + 1) 0 docs in
    t.nf <- max 256 total;
    t.live <- total;
    (* every top is rebuilt dead-free below, so the cleaning epoch
       restarts (nf, and with it the period delta, just changed too) *)
    t.del_counter <- 0;
    add_docs_as_tops t docs;
    Obs.record t.obs (Obs.Restructure { nf = t.nf; structures = List.length t.tops })

  let restructure t =
    (* finish pending jobs first so no work is lost *)
    for j = 0 to clean_slot do
      force_job t j
    done;
    rebuild_as_tops t (all_docs t)

  (* --- insertion --- *)

  (* Lock level j (C_j becomes L_j, C_j empties) and start the background
     job building the new C_{j+1} (or a new top if j = r). *)
  let lock_and_start t j ~extra_doc ~target =
    let job_slot = match target with `Sub jj -> jj | `Top -> top_slot in
    assert (t.jobs.(job_slot) = None);
    (* snapshot sources *)
    let locked_source, frees_locked =
      if j = 0 then begin
        let b = t.c0 in
        t.l0 <- Some b;
        t.c0 <- Doc_buffer.create ();
        (`Buffer b, Some 0)
      end
      else begin
        let ss = t.subs.(j) in
        t.locked.(j) <- ss;
        t.subs.(j) <- None;
        (`Ss ss, Some j)
      end
    in
    (* the new C_{j+1} absorbs the old one; a new top below the grain
       absorbs small tops instead ([merge_partners]) *)
    let absorbed, merged, target =
      match target with
      | `Sub jj -> (t.subs.(jj), [], `Sub jj)
      | `Top ->
        let live =
          (match locked_source with `Ss (Some ss) -> SS.live_symbols ss | _ -> 0)
          + match extra_doc with None -> 0 | Some (_, text) -> String.length text + 1
        in
        let merged = merge_partners t ~live in
        (None, merged, `Top (List.map fst merged))
    in
    (* the new document is queryable through Temp while the job runs *)
    (match extra_doc with
    | None -> ()
    | Some (id, text) -> t.temps.(job_slot) <- Some (build_ss t [ (id, text) ]));
    Obs.record t.obs (Obs.Lock { level = j; target = target_name target });
    (* The body reads its sources when it runs, on whichever domain runs
       it.  The only concurrent mutations are the owner swapping L0's
       immutable map for a smaller one and flipping semi-static dead
       bits; both are memory-safe under the OCaml memory model, and the
       deleted-during replay at the install point repairs whatever the
       read saw. *)
    let body tick =
      let docs0 =
        match locked_source with
        | `Buffer b -> Doc_buffer.docs ~tick b
        | `Ss None -> []
        | `Ss (Some ss) -> SS.live_docs ~tick ss
      in
      let docs1 = match absorbed with None -> [] | Some ss -> SS.live_docs ~tick ss in
      let extra = match extra_doc with None -> [] | Some d -> [ d ] in
      build_ss t ~tick (docs0 @ docs1 @ docs_of_tops ~tick merged @ extra)
    in
    let run = make_run t ~name:(target_name target) body in
    start_job t job_slot { run; target; frees_locked; deleted_during = [] }

  let insert_body t (text : string) : int =
    let t0 = Obs.start () in
    let id = t.next_id in
    t.next_id <- t.next_id + 1;
    let tlen = String.length text + 1 in
    pump t tlen;
    let r = r_of t in
    if tlen >= top_grain t then begin
      (* oversized document: its own top collection, built now *)
      let key = t.next_top_key in
      t.next_top_key <- key + 1;
      t.tops <- (key, build_ss t [ (id, text) ]) :: t.tops;
      Obs.record t.obs
        (Obs.Note (Printf.sprintf "insert: oversized doc %d as top T%d" id key))
    end
    else if Doc_buffer.live_symbols t.c0 + tlen <= max_size t 0 then
      Doc_buffer.insert t.c0 ~doc:id text
    else begin
      (* smallest j with |C_j| + |C_{j+1}| + |T| <= max_{j+1} *)
      let size_of j = if j = 0 then Doc_buffer.live_symbols t.c0 else sub_live t j in
      let rec find j =
        if j >= r then None
        else if size_of j + size_of (j + 1) + tlen <= max_size t (j + 1) then Some j
        else find (j + 1)
      in
      (* Forcing pending jobs below installs new sub-collections, so the
         sizes [find] saw can be stale by the time the slot is locked --
         locking anyway can overflow max_{j+1} (the differential checker
         caught exactly that). Hence the placement loop: pick j, land the
         conflicting jobs, and only proceed if the capacity condition
         still holds under the post-install sizes; otherwise re-find.
         Each retry has strictly fewer pending jobs, so it terminates. *)
      let rec place () =
        match find 0 with
        | Some j ->
          (* Invariant: before consuming or locking C_k, any pending job that
             would rebuild C_k (slot k) must land first, otherwise its
             snapshot would resurrect documents we are about to move. *)
          if j > 0 then force_job t j;
          force_job t (j + 1);
          if (j = 0 && t.l0 <> None) || (j > 0 && t.locked.(j) <> None) then begin
            (* L_j still alive: its job targets j+1; finish it *)
            force_job t (j + 1);
            (* if still locked the job lives elsewhere (top slot) *)
            force_job t top_slot
          end;
          if size_of j + size_of (j + 1) + tlen > max_size t (j + 1) then place ()
          else if tlen >= max_size t j / 2 then begin
            (* big enough to pay for a synchronous rebuild *)
            Obs.incr t.c_sync_merges;
            let m0 = Obs.start () in
            let docs0 = if j = 0 then Doc_buffer.docs t.c0 else match t.subs.(j) with None -> [] | Some ss -> SS.live_docs ss in
            let docs1 = match t.subs.(j + 1) with None -> [] | Some ss -> SS.live_docs ss in
            if j = 0 then t.c0 <- Doc_buffer.create () else t.subs.(j) <- None;
            t.subs.(j + 1) <- Some (build_ss t (docs0 @ docs1 @ [ (id, text) ]));
            Obs.stop t.h_merge_ns m0;
            Obs.record t.obs (Obs.Merge { from_level = j; into_level = j + 1; sync = true })
          end
          else lock_and_start t j ~extra_doc:(Some (id, text)) ~target:(`Sub (j + 1))
        | None ->
          (* everything full: C_r (plus T) becomes a new top *)
          force_job t r;
          force_job t top_slot;
          if t.locked.(r) <> None then force_job t top_slot;
          if find 0 <> None then place ()
          else lock_and_start t r ~extra_doc:(Some (id, text)) ~target:`Top
      in
      place ()
    end;
    t.live <- t.live + tlen;
    t.doc_count <- t.doc_count + 1;
    if t.live > 2 * t.nf then restructure t;
    Obs.incr t.c_inserts;
    Obs.stop t.h_insert_ns t0;
    id

  (* --- deletion --- *)

  let doc_size t id =
    let size = ref None in
    iter_structures t
      ~fss:(fun ss -> if !size = None then match SS.doc_len ss id with Some l -> size := Some (l + 1) | None -> ())
      ~fbuf:(fun b ->
        if !size = None then
          match Doc_buffer.find b id with Some s -> size := Some (String.length s + 1) | None -> ());
    !size

  (* Dietz-Sleator cleaning period: one top rebuild is dispatched per
     delta = nf / (2 tau lg tau) deleted symbols. *)
  let clean_period t =
    let lg_tau = max 1 (int_of_float (ceil (log (float_of_int (max 2 t.tau)) /. log 2.))) in
    max 64 (t.nf / (2 * t.tau * lg_tau))

  (* Deleted symbols since the last cleaning dispatch, and the period.
     Schedule invariant: the counter stays below twice the period. *)
  let clean_schedule t = (t.del_counter, clean_period t)

  (* Pick the idle top with the most dead symbols for a cleaning rebuild
     and account the dispatch; [None] if every idle top is dead-free. *)
  let dispatch_clean t =
    let busy = busy_tops t in
    let worst =
      List.fold_left
        (fun acc (k, ss) ->
          match acc with
          | Some (_, best) when SS.dead_symbols best >= SS.dead_symbols ss -> acc
          | _ -> if SS.dead_symbols ss > 0 && not (List.mem k busy) then Some (k, ss) else acc)
        None t.tops
    in
    Option.iter
      (fun (key, ss) ->
        Obs.incr t.c_top_cleanings;
        let dead = SS.dead_symbols ss in
        let total = SS.live_symbols ss + dead in
        Obs.observe t.h_purge_dead_frac (if total = 0 then 0 else dead * 1000 / total);
        Obs.record t.obs (Obs.Top_clean { key; dead }))
      worst;
    worst

  (* Dietz-Sleator top cleaning: after every delta deleted symbols, rebuild
     the top with the most dead symbols ([dispatch_clean]) and, if it
     holds fewer live symbols than the grain, its [merge_partners], as
     one top under the picked top's key, in the cleaning slot (one
     cleaning at a time). *)
  let maybe_clean_tops t =
    if t.fault = Some `Skip_top_clean then ()
    else begin
    let delta = clean_period t in
    (* if the previous cleaning is still in flight after a full second
       period of deletions, land it now -- otherwise the schedule (and the
       dead-space bound that rests on it) can fall arbitrarily behind *)
    if t.del_counter >= 2 * delta && t.jobs.(clean_slot) <> None then force_job t clean_slot;
    if t.del_counter >= delta && t.jobs.(clean_slot) = None then begin
      t.del_counter <- 0;
      match dispatch_clean t with
      | None -> ()
      | Some ((key, ss) as picked) ->
        let merged = merge_partners ~except:[ key ] t ~live:(SS.live_symbols ss) in
        let target = `Replace_top (key, List.map fst merged) in
        let run =
          make_run t ~name:(target_name target) (fun tick ->
              build_ss t ~tick (docs_of_tops ~tick (picked :: merged)))
        in
        start_job t clean_slot { run; target; frees_locked = None; deleted_during = [] }
    end
    end

  (* Deleting a nonexistent or already-deleted document must return false
     without pumping jobs, touching counters or running purge checks --
     so the structure is located and marked dead first, and all side
     effects happen only on success. *)
  let delete_body t id =
    match doc_size t id with
    | None -> false
    | Some syms ->
      let t0 = Obs.start () in
      (* try the uncompressed buffers first, then every SS *)
      let deleted =
        ref (Doc_buffer.delete t.c0 id || match t.l0 with Some b -> Doc_buffer.delete b id | None -> false)
      in
      if not !deleted then begin
        let try_ss ss = if (not !deleted) && SS.mem ss id then deleted := SS.delete ss id in
        for j = 1 to max_slots + 1 do
          (match t.subs.(j) with None -> () | Some ss -> try_ss ss);
          (match t.locked.(j) with None -> () | Some ss -> try_ss ss);
          match t.temps.(j) with None -> () | Some ss -> try_ss ss
        done;
        List.iter (fun (_, ss) -> try_ss ss) t.tops
      end;
      if not !deleted then false
      else begin
        (* in-flight snapshots must learn about the deletion before any
           pending job is allowed to land, or the job would resurrect it *)
        register_deletion_with_jobs t id;
        pump t syms;
        t.live <- t.live - syms;
        t.doc_count <- t.doc_count - 1;
        t.del_counter <- t.del_counter + syms;
        (* drop emptied one-document tops immediately *)
        t.tops <- List.filter (fun (_, ss) -> not (SS.is_empty ss)) t.tops;
        (* C_j purge rule: dead >= max_j / 2 -> merge into C_{j+1} (or top).
           The merge is only legal if the live symbols actually fit in the
           next level's schedule capacity; otherwise rebuild C_j in place
           ([`Sub j]: the lock empties the slot, so the job reinstalls the
           live documents at the same level). *)
        let r = r_of t in
        for j = 1 to r do
          match t.subs.(j) with
          | Some ss when SS.dead_symbols ss >= max 32 (max_size t j / 2) && t.locked.(j) = None ->
            let target =
              if j >= r then `Top
              else if SS.live_symbols ss + sub_live t (j + 1) <= max_size t (j + 1) then `Sub (j + 1)
              else `Sub j
            in
            let slot = match target with `Sub jj -> jj | _ -> top_slot in
            if t.jobs.(slot) = None && t.jobs.(j) = None then begin
              let dead = SS.dead_symbols ss in
              let total = SS.live_symbols ss + dead in
              Obs.observe t.h_purge_dead_frac (if total = 0 then 0 else dead * 1000 / total);
              Obs.record t.obs (Obs.Purge { level = j; dead; total });
              lock_and_start t j ~extra_doc:None ~target
            end
          | _ -> ()
        done;
        maybe_clean_tops t;
        if 2 * t.live < t.nf && t.nf > 256 then restructure t;
        Obs.incr t.c_deletes;
        Obs.stop t.h_delete_ns t0;
        true
      end

  (* --- read plane --- *)

  (* Publish the next epoch: every queryable structure, each frozen once
     per mutation (the buffer / SS caches), in census order.  Published once
     per successful update (plus once by [drain] if it landed jobs), so
     with a single-threaded writer the epoch equals the number of
     completed updates. *)
  let publish t ~cause =
    Epoch_view.publish t.published ~cause ~docs:t.doc_count ~symbols:t.live ~next_id:t.next_id
      (fun () ->
        let acc = ref [] in
        let add name ss = acc := (name, SS.snapshot ss) :: !acc in
        List.fold_right (fun (k, ss) () -> add (Epoch_view.t_name k) ss) t.tops ();
        for j = max_slots + 1 downto 1 do
          Option.iter (add (Epoch_view.temp_name j)) t.temps.(j);
          Option.iter (add (Epoch_view.l_name j)) t.locked.(j);
          Option.iter (add (Epoch_view.c_name j)) t.subs.(j)
        done;
        Option.iter (fun b -> acc := ("L0", Doc_buffer.snapshot b) :: !acc) t.l0;
        ("C0", Doc_buffer.snapshot t.c0) :: !acc)

  let view t = Epoch_view.latest t.published

  (* Restore from a flat dump as one restructure: every document into
     fresh dead-free tops under nf set to their size, so the capacity,
     buffer and top-count invariants hold by construction.  The first
     published view continues the dump's epoch, so epoch = completed
     updates keeps holding across a restart. *)
  let restore config (d : Dynamization.dump) =
    let t = create config in
    t.next_id <- d.dm_next_id;
    t.doc_count <- Array.length d.dm_docs;
    rebuild_as_tops t (Array.to_list d.dm_docs);
    publish t ~cause:(`Restored d.dm_epoch);
    t

  let insert t text =
    let id = insert_body t text in
    publish t ~cause:`Update;
    id

  (* Under the planted [`Stale_epoch] fault a successful delete skips
     the publication: the write plane stays correct while the read
     plane serves stale views. *)
  let delete t id =
    let ok = delete_body t id in
    if ok && t.fault <> Some `Stale_epoch then publish t ~cause:`Update;
    ok

  (* Census of all structures: the measured counterpart of Figure 2. *)
  let census t =
    let acc = ref [] in
    let add name live dead = acc := (name, live, dead) :: !acc in
    add "C0" (Doc_buffer.live_symbols t.c0) 0;
    Option.iter (fun b -> add "L0" (Doc_buffer.live_symbols b) 0) t.l0;
    for j = 1 to max_slots + 1 do
      (match t.subs.(j) with
      | None -> ()
      | Some ss -> add (Printf.sprintf "C%d" j) (SS.live_symbols ss) (SS.dead_symbols ss));
      (match t.locked.(j) with
      | None -> ()
      | Some ss -> add (Printf.sprintf "L%d" j) (SS.live_symbols ss) (SS.dead_symbols ss));
      match t.temps.(j) with
      | None -> ()
      | Some ss -> add (Printf.sprintf "Temp%d" j) (SS.live_symbols ss) (SS.dead_symbols ss)
    done;
    List.iter (fun (k, ss) -> add (Printf.sprintf "T%d" k) (SS.live_symbols ss) (SS.dead_symbols ss)) t.tops;
    List.rev !acc

  (* Space per structure, for the nHk + o(n) accounting. *)
  let space_census t =
    let acc = ref [] in
    let add name bits = acc := (name, bits) :: !acc in
    add "C0" (Doc_buffer.space_bits t.c0);
    Option.iter (fun b -> add "L0" (Doc_buffer.space_bits b)) t.l0;
    for j = 1 to max_slots + 1 do
      (match t.subs.(j) with None -> () | Some ss -> add (Printf.sprintf "C%d" j) (SS.space_bits ss));
      (match t.locked.(j) with None -> () | Some ss -> add (Printf.sprintf "L%d" j) (SS.space_bits ss));
      match t.temps.(j) with
      | None -> ()
      | Some ss -> add (Printf.sprintf "Temp%d" j) (SS.space_bits ss)
    done;
    List.iter (fun (k, ss) -> add (Printf.sprintf "T%d" k) (SS.space_bits ss)) t.tops;
    List.rev !acc

  let pending_jobs t =
    let c = ref 0 in
    for j = 0 to clean_slot do
      if t.jobs.(j) <> None then incr c
    done;
    !c

  (* Land every in-flight job now (each counts as a forced completion,
     exactly like a capacity conflict would).  Publishes a fresh epoch
     only if jobs actually landed -- a no-op drain must not disturb the
     epoch = completed-updates invariant. *)
  let drain t =
    let pending = pending_jobs t in
    for j = 0 to clean_slot do
      force_job t j
    done;
    if pending > 0 then publish t ~cause:`Drain

  (* Drain, then stop and join the worker domains.  The index stays
     fully usable afterwards; new jobs simply run synchronously. *)
  let close t =
    match t.exec with
    | None -> ()
    | Some exec ->
      drain t;
      Exec.shutdown exec

  let space_bits t =
    let total = ref 0 in
    iter_structures t
      ~fss:(fun ss -> total := !total + SS.space_bits ss)
      ~fbuf:(fun b -> total := !total + Doc_buffer.space_bits b);
    !total

  let probe t : Dynamization.probe =
    let s = stats t in
    {
      pr_census = census t;
      pr_capacity = level_capacity t;
      pr_nf = t.nf;
      pr_tau = t.tau;
      pr_pending_jobs = pending_jobs t;
      pr_jobs = Some (s.jobs_started, s.jobs_completed, s.forced);
      pr_clean = Some (clean_schedule t);
    }
end
