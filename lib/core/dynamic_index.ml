(* Top-level convenience API over the Transformations: a dynamic
   compressed document index with pluggable dynamization strategy and
   static-index backend.

   {[
     let idx = Dynamic_index.create () in
     let id = Dynamic_index.insert idx "some document text" in
     Dynamic_index.search idx "cument"   (* [(id, 4)] *)
   ]} *)

type variant = Index_config.variant = Amortized | Amortized_loglog | Worst_case
type backend = Index_config.backend = Fm | Plain_sa | Csa

(* Read-only structural snapshot for the invariant oracles in Dsdg_check:
   the per-structure census (with dead counts), the schedule's level
   capacities, the current nf snapshot and, for Transformation 2, the
   background-job counters. *)
type probe = {
  pr_census : (string * int * int) list; (* name, live, dead *)
  pr_capacity : int -> int; (* level j -> schedule capacity under current nf *)
  pr_nf : int;
  pr_tau : int;
  pr_pending_jobs : int; (* background jobs in flight (always 0 for T1/T3) *)
  pr_jobs : (int * int * int) option; (* T2 only: started, completed, forced *)
  pr_clean : (int * int) option;
      (* T2 only: (deleted symbols since the last top-cleaning dispatch,
         period delta); the Dietz-Sleator schedule keeps the counter
         below twice the period *)
}

(* Read-plane snapshot, uniform across every variant x backend: the
   underlying transformation's typed view captured in closures.  A view
   is immutable end to end, so it can be queried from any domain (the
   reader pool, or raw [Domain.spawn]) without synchronization. *)
type view = {
  vw_epoch : int;
  vw_doc_count : int;
  vw_total_symbols : int;
  vw_census : (string * int * int) list;
  vw_search : string -> f:(doc:int -> off:int -> unit) -> unit;
  vw_count : string -> int;
  vw_extract : doc:int -> off:int -> len:int -> string option;
  vw_mem : int -> bool;
  vw_components : unit -> (string * (int * string) array * bool array) list;
      (* persistence: per-structure resident docs + deletion bit vectors,
         extracted lazily (O(n)) from the frozen structures -- safe to
         call on a checkpoint worker domain *)
}

(* The logical state of one published epoch -- everything [Dsdg_store]
   serializes.  Derived structures (suffix arrays, BWTs, wavelet trees,
   Reporters) are deliberately absent: they are deterministic functions
   of the components, rebuilt on [restore]. *)
type dump = {
  dm_variant : variant;
  dm_backend : backend;
  dm_sample : int;
  dm_tau : int;
  dm_epoch : int;
  dm_next_id : int;
  dm_nf : int;
  dm_del_counter : int; (* Dietz-Sleator cleaning counter; 0 for T1/T3 *)
  dm_components : (string * (int * string) array * bool array) list;
}

type ops = {
  op_insert : string -> int;
  op_delete : int -> bool;
  op_mem : int -> bool;
  op_search : string -> f:(doc:int -> off:int -> unit) -> unit;
  op_count : string -> int;
  op_extract : doc:int -> off:int -> len:int -> string option;
  op_doc_count : unit -> int;
  op_total_symbols : unit -> int;
  op_space_bits : unit -> int;
  op_describe : unit -> string;
  op_obs : unit -> Dsdg_obs.Obs.scope;
  op_events : unit -> string list;
  op_probe : unit -> probe;
  op_next_id : unit -> int; (* persistence: the next id the index would assign *)
  op_view : unit -> view; (* latest published epoch: one Atomic.get *)
  op_drain : unit -> unit; (* land every in-flight background job now *)
  op_close : unit -> unit; (* drain + stop/join executor domains, if any *)
}

module Exec = Dsdg_exec.Executor

(* Retention/pinning metrics live on a "core" scope so the read-plane
   time-travel machinery is observable alongside the per-transformation
   scopes. *)
let obs_core = Dsdg_obs.Obs.scope "core"
let c_evictions = Dsdg_obs.Obs.counter obs_core "retention_evictions"
let c_retained = Dsdg_obs.Obs.counter obs_core "epochs_retained"
let g_ring = Dsdg_obs.Obs.gauge obs_core "retained_views"
let g_pinned = Dsdg_obs.Obs.gauge obs_core "pinned_views"

type t = {
  ops : ops;
  readers : Exec.t option;
  (* creation settings; the shape fields are recorded into every dump *)
  config : Index_config.t;
  (* bounded epoch retention: the [retain_epochs] most recently
     published views, newest first, held in an immutable list behind one
     Atomic so any domain can resolve [view_at] wait-free while the
     writer pushes. [retain_epochs = 0] keeps the ring empty -- the
     historical behavior. *)
  ring : view list Atomic.t;
  (* pinned views survive ring eviction until [unpin]; tokens are local
     to this instance. *)
  pins : (int * view) list Atomic.t;
  pin_next : int Atomic.t;
}

module T1_fm = Transform1.Make (Fm_static)
module T1_sa = Transform1.Make (Sa_static)
module T1_csa = Transform1.Make (Csa_static)
module T2_fm = Transform2.Make (Fm_static)
module T2_sa = Transform2.Make (Sa_static)
module T2_csa = Transform2.Make (Csa_static)


(* API conventions enforced uniformly across every variant x backend
   (the backends disagree on these edge cases, which is exactly the kind
   of drift the differential checker exists to catch):

   - the empty pattern is rejected with [Invalid_argument]: under the
     paper's occurrence definition [""] would match at every position of
     every live document (live symbols + one sentinel per document), a
     degenerate query no backend answers in sublinear time -- and the
     three static indexes each rejected it with a *different* message;
   - [extract ~len:0] is [Some ""] for a live document and [None] for a
     dead/absent one, regardless of [off] and of which sub-collection
     (including a locked [L_j] mid-rebuild) owns the document. *)
let enforce_conventions ops =
  {
    ops with
    op_search =
      (fun p ~f ->
        if p = "" then invalid_arg "Dynamic_index: empty pattern";
        ops.op_search p ~f);
    op_count =
      (fun p ->
        if p = "" then invalid_arg "Dynamic_index: empty pattern";
        ops.op_count p);
    op_extract =
      (fun ~doc ~off ~len ->
        if len = 0 then (if ops.op_mem doc then Some "" else None)
        else ops.op_extract ~doc ~off ~len);
  }

(* Views get the same conventions as the write-plane ops: a query must
   behave identically whichever plane answers it. *)
let mk_view ~epoch ~docs ~syms ~census ~search ~count ~extract ~mem ~components =
  {
    vw_epoch = epoch;
    vw_doc_count = docs;
    vw_total_symbols = syms;
    vw_census = census;
    vw_components = components;
    vw_search =
      (fun p ~f ->
        if p = "" then invalid_arg "Dynamic_index: empty pattern";
        search p ~f);
    vw_count =
      (fun p ->
        if p = "" then invalid_arg "Dynamic_index: empty pattern";
        count p);
    vw_extract =
      (fun ~doc ~off ~len ->
        if len = 0 then (if mem doc then Some "" else None) else extract ~doc ~off ~len);
    vw_mem = mem;
  }

(* Shared constructor behind [create] and [restore]: when [restore_from]
   is set, each branch rebuilds the transformation from the dump's
   components instead of starting empty -- everything else (closure
   wiring, conventions, reader pool) is identical. *)
let make ?restore_from ?tail (config : Index_config.t) : t =
  let { Index_config.variant; backend; sample; tau; fault; jobs; readers; _ } =
    Index_config.validate config
  in
  let t1_probe census_full level_capacity nf () =
    {
      pr_census = census_full ();
      pr_capacity = level_capacity;
      pr_nf = nf ();
      pr_tau = tau;
      pr_pending_jobs = 0;
      pr_jobs = None;
      pr_clean = None;
    }
  in
  let t2_probe census level_capacity nf pending stats clean () =
    let s : Transform2.stats = stats () in
    {
      pr_census = census ();
      pr_capacity = level_capacity;
      pr_nf = nf ();
      pr_tau = tau;
      pr_pending_jobs = pending ();
      pr_jobs =
        Some (s.Transform2.jobs_started, s.Transform2.jobs_completed, s.Transform2.forced);
      pr_clean = Some (clean ());
    }
  in
  let t1 schedule name =
    match backend with
    | Fm ->
      let t =
        match restore_from with
        | None -> T1_fm.create ~schedule ~sample ~tau ~jobs ()
        | Some d ->
          T1_fm.restore ~schedule ~sample ~tau ~jobs ~next_id:d.dm_next_id ~nf:d.dm_nf
            ~epoch:d.dm_epoch ~components:d.dm_components ?tail ()
      in
      {
        op_insert = T1_fm.insert t;
        op_delete = T1_fm.delete t;
        op_mem = T1_fm.mem t;
        op_search = (fun p ~f -> T1_fm.search t p ~f);
        op_count = T1_fm.count t;
        op_extract = (fun ~doc ~off ~len -> T1_fm.extract t ~doc ~off ~len);
        op_doc_count = (fun () -> T1_fm.doc_count t);
        op_total_symbols = (fun () -> T1_fm.total_symbols t);
        op_space_bits = (fun () -> T1_fm.space_bits t);
        op_describe = (fun () -> name ^ "/fm");
        op_obs = (fun () -> T1_fm.obs t);
        op_events = (fun () -> T1_fm.events t);
        op_probe =
          t1_probe (fun () -> T1_fm.census_full t) (T1_fm.level_capacity t) (fun () -> T1_fm.nf t);
        op_next_id = (fun () -> T1_fm.next_id t);
        op_view =
          (fun () ->
            let v = T1_fm.view t in
            mk_view ~epoch:(T1_fm.view_epoch v) ~docs:(T1_fm.view_doc_count v)
              ~syms:(T1_fm.view_total_symbols v) ~census:(T1_fm.view_census v)
              ~search:(fun p ~f -> T1_fm.view_search v p ~f)
              ~count:(T1_fm.view_count v)
              ~extract:(fun ~doc ~off ~len -> T1_fm.view_extract v ~doc ~off ~len)
              ~mem:(T1_fm.view_mem v)
              ~components:(fun () -> T1_fm.view_components v));
        op_drain = (fun () -> ());
        op_close = (fun () -> T1_fm.close t);
      }
    | Plain_sa ->
      let t =
        match restore_from with
        | None -> T1_sa.create ~schedule ~sample ~tau ~jobs ()
        | Some d ->
          T1_sa.restore ~schedule ~sample ~tau ~jobs ~next_id:d.dm_next_id ~nf:d.dm_nf
            ~epoch:d.dm_epoch ~components:d.dm_components ?tail ()
      in
      {
        op_insert = T1_sa.insert t;
        op_delete = T1_sa.delete t;
        op_mem = T1_sa.mem t;
        op_search = (fun p ~f -> T1_sa.search t p ~f);
        op_count = T1_sa.count t;
        op_extract = (fun ~doc ~off ~len -> T1_sa.extract t ~doc ~off ~len);
        op_doc_count = (fun () -> T1_sa.doc_count t);
        op_total_symbols = (fun () -> T1_sa.total_symbols t);
        op_space_bits = (fun () -> T1_sa.space_bits t);
        op_describe = (fun () -> name ^ "/sa");
        op_obs = (fun () -> T1_sa.obs t);
        op_events = (fun () -> T1_sa.events t);
        op_probe =
          t1_probe (fun () -> T1_sa.census_full t) (T1_sa.level_capacity t) (fun () -> T1_sa.nf t);
        op_next_id = (fun () -> T1_sa.next_id t);
        op_view =
          (fun () ->
            let v = T1_sa.view t in
            mk_view ~epoch:(T1_sa.view_epoch v) ~docs:(T1_sa.view_doc_count v)
              ~syms:(T1_sa.view_total_symbols v) ~census:(T1_sa.view_census v)
              ~search:(fun p ~f -> T1_sa.view_search v p ~f)
              ~count:(T1_sa.view_count v)
              ~extract:(fun ~doc ~off ~len -> T1_sa.view_extract v ~doc ~off ~len)
              ~mem:(T1_sa.view_mem v)
              ~components:(fun () -> T1_sa.view_components v));
        op_drain = (fun () -> ());
        op_close = (fun () -> T1_sa.close t);
      }
    | Csa ->
      let t =
        match restore_from with
        | None -> T1_csa.create ~schedule ~sample ~tau ~jobs ()
        | Some d ->
          T1_csa.restore ~schedule ~sample ~tau ~jobs ~next_id:d.dm_next_id ~nf:d.dm_nf
            ~epoch:d.dm_epoch ~components:d.dm_components ?tail ()
      in
      {
        op_insert = T1_csa.insert t;
        op_delete = T1_csa.delete t;
        op_mem = T1_csa.mem t;
        op_search = (fun p ~f -> T1_csa.search t p ~f);
        op_count = T1_csa.count t;
        op_extract = (fun ~doc ~off ~len -> T1_csa.extract t ~doc ~off ~len);
        op_doc_count = (fun () -> T1_csa.doc_count t);
        op_total_symbols = (fun () -> T1_csa.total_symbols t);
        op_space_bits = (fun () -> T1_csa.space_bits t);
        op_describe = (fun () -> name ^ "/csa");
        op_obs = (fun () -> T1_csa.obs t);
        op_events = (fun () -> T1_csa.events t);
        op_probe =
          t1_probe (fun () -> T1_csa.census_full t) (T1_csa.level_capacity t)
            (fun () -> T1_csa.nf t);
        op_next_id = (fun () -> T1_csa.next_id t);
        op_view =
          (fun () ->
            let v = T1_csa.view t in
            mk_view ~epoch:(T1_csa.view_epoch v) ~docs:(T1_csa.view_doc_count v)
              ~syms:(T1_csa.view_total_symbols v) ~census:(T1_csa.view_census v)
              ~search:(fun p ~f -> T1_csa.view_search v p ~f)
              ~count:(T1_csa.view_count v)
              ~extract:(fun ~doc ~off ~len -> T1_csa.view_extract v ~doc ~off ~len)
              ~mem:(T1_csa.view_mem v)
              ~components:(fun () -> T1_csa.view_components v));
        op_drain = (fun () -> ());
        op_close = (fun () -> T1_csa.close t);
      }
  in
  let ops =
    enforce_conventions
    @@ match variant with
  | Amortized -> t1 (Transform1.geometric ()) "transform1"
  | Amortized_loglog -> t1 (Transform1.doubling ()) "transform3"
  | Worst_case -> (
    match backend with
    | Fm ->
      let t =
        match restore_from with
        | None -> T2_fm.create ~sample ~tau ?fault ~jobs ()
        | Some d ->
          T2_fm.restore ~sample ~tau ?fault ~jobs ~next_id:d.dm_next_id ~nf:d.dm_nf
            ~del_counter:d.dm_del_counter ~epoch:d.dm_epoch ~components:d.dm_components ?tail ()
      in
      {
        op_insert = T2_fm.insert t;
        op_delete = T2_fm.delete t;
        op_mem = T2_fm.mem t;
        op_search = (fun p ~f -> T2_fm.search t p ~f);
        op_count = T2_fm.count t;
        op_extract = (fun ~doc ~off ~len -> T2_fm.extract t ~doc ~off ~len);
        op_doc_count = (fun () -> T2_fm.doc_count t);
        op_total_symbols = (fun () -> T2_fm.total_symbols t);
        op_space_bits = (fun () -> T2_fm.space_bits t);
        op_describe = (fun () -> "transform2/fm");
        op_obs = (fun () -> T2_fm.obs t);
        op_events = (fun () -> T2_fm.events t);
        op_probe =
          t2_probe (fun () -> T2_fm.census t) (T2_fm.level_capacity t) (fun () -> T2_fm.nf t)
            (fun () -> T2_fm.pending_jobs t) (fun () -> T2_fm.stats t)
            (fun () -> T2_fm.clean_schedule t);
        op_next_id = (fun () -> T2_fm.next_id t);
        op_view =
          (fun () ->
            let v = T2_fm.view t in
            mk_view ~epoch:(T2_fm.view_epoch v) ~docs:(T2_fm.view_doc_count v)
              ~syms:(T2_fm.view_total_symbols v) ~census:(T2_fm.view_census v)
              ~search:(fun p ~f -> T2_fm.view_search v p ~f)
              ~count:(T2_fm.view_count v)
              ~extract:(fun ~doc ~off ~len -> T2_fm.view_extract v ~doc ~off ~len)
              ~mem:(T2_fm.view_mem v)
              ~components:(fun () -> T2_fm.view_components v));
        op_drain = (fun () -> T2_fm.drain t);
        op_close = (fun () -> T2_fm.close t);
      }
    | Plain_sa ->
      let t =
        match restore_from with
        | None -> T2_sa.create ~sample ~tau ?fault ~jobs ()
        | Some d ->
          T2_sa.restore ~sample ~tau ?fault ~jobs ~next_id:d.dm_next_id ~nf:d.dm_nf
            ~del_counter:d.dm_del_counter ~epoch:d.dm_epoch ~components:d.dm_components ?tail ()
      in
      {
        op_insert = T2_sa.insert t;
        op_delete = T2_sa.delete t;
        op_mem = T2_sa.mem t;
        op_search = (fun p ~f -> T2_sa.search t p ~f);
        op_count = T2_sa.count t;
        op_extract = (fun ~doc ~off ~len -> T2_sa.extract t ~doc ~off ~len);
        op_doc_count = (fun () -> T2_sa.doc_count t);
        op_total_symbols = (fun () -> T2_sa.total_symbols t);
        op_space_bits = (fun () -> T2_sa.space_bits t);
        op_describe = (fun () -> "transform2/sa");
        op_obs = (fun () -> T2_sa.obs t);
        op_events = (fun () -> T2_sa.events t);
        op_probe =
          t2_probe (fun () -> T2_sa.census t) (T2_sa.level_capacity t) (fun () -> T2_sa.nf t)
            (fun () -> T2_sa.pending_jobs t) (fun () -> T2_sa.stats t)
            (fun () -> T2_sa.clean_schedule t);
        op_next_id = (fun () -> T2_sa.next_id t);
        op_view =
          (fun () ->
            let v = T2_sa.view t in
            mk_view ~epoch:(T2_sa.view_epoch v) ~docs:(T2_sa.view_doc_count v)
              ~syms:(T2_sa.view_total_symbols v) ~census:(T2_sa.view_census v)
              ~search:(fun p ~f -> T2_sa.view_search v p ~f)
              ~count:(T2_sa.view_count v)
              ~extract:(fun ~doc ~off ~len -> T2_sa.view_extract v ~doc ~off ~len)
              ~mem:(T2_sa.view_mem v)
              ~components:(fun () -> T2_sa.view_components v));
        op_drain = (fun () -> T2_sa.drain t);
        op_close = (fun () -> T2_sa.close t);
      }
    | Csa ->
      let t =
        match restore_from with
        | None -> T2_csa.create ~sample ~tau ?fault ~jobs ()
        | Some d ->
          T2_csa.restore ~sample ~tau ?fault ~jobs ~next_id:d.dm_next_id ~nf:d.dm_nf
            ~del_counter:d.dm_del_counter ~epoch:d.dm_epoch ~components:d.dm_components ?tail ()
      in
      {
        op_insert = T2_csa.insert t;
        op_delete = T2_csa.delete t;
        op_mem = T2_csa.mem t;
        op_search = (fun p ~f -> T2_csa.search t p ~f);
        op_count = T2_csa.count t;
        op_extract = (fun ~doc ~off ~len -> T2_csa.extract t ~doc ~off ~len);
        op_doc_count = (fun () -> T2_csa.doc_count t);
        op_total_symbols = (fun () -> T2_csa.total_symbols t);
        op_space_bits = (fun () -> T2_csa.space_bits t);
        op_describe = (fun () -> "transform2/csa");
        op_obs = (fun () -> T2_csa.obs t);
        op_events = (fun () -> T2_csa.events t);
        op_probe =
          t2_probe (fun () -> T2_csa.census t) (T2_csa.level_capacity t) (fun () -> T2_csa.nf t)
            (fun () -> T2_csa.pending_jobs t) (fun () -> T2_csa.stats t)
            (fun () -> T2_csa.clean_schedule t);
        op_next_id = (fun () -> T2_csa.next_id t);
        op_view =
          (fun () ->
            let v = T2_csa.view t in
            mk_view ~epoch:(T2_csa.view_epoch v) ~docs:(T2_csa.view_doc_count v)
              ~syms:(T2_csa.view_total_symbols v) ~census:(T2_csa.view_census v)
              ~search:(fun p ~f -> T2_csa.view_search v p ~f)
              ~count:(T2_csa.view_count v)
              ~extract:(fun ~doc ~off ~len -> T2_csa.view_extract v ~doc ~off ~len)
              ~mem:(T2_csa.view_mem v)
              ~components:(fun () -> T2_csa.view_components v));
        op_drain = (fun () -> T2_csa.drain t);
        op_close = (fun () -> T2_csa.close t);
      })
  in
  let readers =
    if readers > 0 then
      Some
        (Exec.create
           ~obs:(Dsdg_obs.Obs.private_scope (ops.op_describe () ^ "/readers"))
           ~workers:readers ())
    else None
  in
  {
    ops;
    readers;
    config;
    ring = Atomic.make [];
    pins = Atomic.make [];
    pin_next = Atomic.make 0;
  }

let create ?(index = Index_config.default) () : t = make index

(* Record the newest published view in the retention ring (writer side;
   called after every update).  Epochs advance by one per successful
   update, so the ring holds a dense window of recent epochs; entries
   beyond [retain_epochs] fall off the tail and can no longer be named by
   [view_at] unless pinned. *)
let retain_note t =
  let retain = t.config.retain_epochs in
  if retain > 0 then begin
    let v = t.ops.op_view () in
    match Atomic.get t.ring with
    | w :: _ when w.vw_epoch >= v.vw_epoch -> ()
    | ring ->
      let rec keep n = function
        | [] -> []
        | _ :: _ when n = 0 -> []
        | x :: tl -> x :: keep (n - 1) tl
      in
      let full = v :: ring in
      let kept = keep retain full in
      let dropped = List.length full - List.length kept in
      if dropped > 0 then Dsdg_obs.Obs.add c_evictions dropped;
      Dsdg_obs.Obs.incr c_retained;
      Dsdg_obs.Obs.set_gauge g_ring (List.length kept);
      Atomic.set t.ring kept
  end

(* Insert a document; returns its id. *)
let insert t text =
  let id = t.ops.op_insert text in
  retain_note t;
  id

(* Delete a document by id; false if absent. *)
let delete t id =
  let ok = t.ops.op_delete id in
  retain_note t;
  ok

let mem t id = t.ops.op_mem id

(* All (doc, off) occurrences, sorted. *)
let search t p =
  let acc = ref [] in
  t.ops.op_search p ~f:(fun ~doc ~off -> acc := (doc, off) :: !acc);
  List.sort compare !acc

let iter_matches t p ~f = t.ops.op_search p ~f
let count t p = t.ops.op_count p
let extract t ~doc ~off ~len = t.ops.op_extract ~doc ~off ~len
let doc_count t = t.ops.op_doc_count ()
let total_symbols t = t.ops.op_total_symbols ()
let space_bits t = t.ops.op_space_bits ()
let describe t = t.ops.op_describe ()

(* The underlying transformation's observability scope (counters,
   histograms, event ring) and its rendered recent-event log. *)
let obs_scope t = t.ops.op_obs ()
let events t = t.ops.op_events ()
let probe t = t.ops.op_probe ()

(* --- read plane --- *)

(* The latest published epoch: one Atomic.get plus closure allocation.
   The returned view is immutable and never changes -- re-fetch to see
   later updates. *)
let view t = t.ops.op_view ()
let view_epoch v = v.vw_epoch
let view_doc_count v = v.vw_doc_count
let view_total_symbols v = v.vw_total_symbols
let view_census v = v.vw_census
let view_mem v id = v.vw_mem id
let view_iter_matches v p ~f = v.vw_search p ~f

let view_search v p =
  let acc = ref [] in
  v.vw_search p ~f:(fun ~doc ~off -> acc := (doc, off) :: !acc);
  List.sort compare !acc

let view_count v p = v.vw_count p
let view_extract v ~doc ~off ~len = v.vw_extract ~doc ~off ~len

(* --- epoch retention and pinning --- *)

let retain_epochs t = t.config.retain_epochs

(* Resolve an epoch against the live view, the retention ring, then the
   pin table.  Wait-free on any domain: each is one Atomic.get over
   immutable data. *)
let view_at t ~epoch =
  let v = t.ops.op_view () in
  if v.vw_epoch = epoch then Some v
  else
    match List.find_opt (fun w -> w.vw_epoch = epoch) (Atomic.get t.ring) with
    | Some _ as hit -> hit
    | None -> (
      match List.find_opt (fun (_, w) -> w.vw_epoch = epoch) (Atomic.get t.pins) with
      | Some (_, w) -> Some w
      | None -> None)

let retained t =
  let v = t.ops.op_view () in
  let ring = List.map (fun w -> w.vw_epoch) (Atomic.get t.ring) in
  let pinned = List.map (fun (_, w) -> w.vw_epoch) (Atomic.get t.pins) in
  List.sort_uniq compare ((v.vw_epoch :: ring) @ pinned)

type pin = { pn_token : int; pn_view : view }

let pin_view p = p.pn_view
let pin_epoch p = p.pn_view.vw_epoch

let pin ?epoch t =
  let v =
    match epoch with
    | None -> t.ops.op_view ()
    | Some e -> (
      match view_at t ~epoch:e with
      | Some v -> v
      | None ->
        invalid_arg (Printf.sprintf "Dynamic_index.pin: epoch %d is not retained or pinned" e))
  in
  let token = Atomic.fetch_and_add t.pin_next 1 in
  let p = { pn_token = token; pn_view = v } in
  Atomic.set t.pins ((token, v) :: Atomic.get t.pins);
  Dsdg_obs.Obs.set_gauge g_pinned (List.length (Atomic.get t.pins));
  p

let unpin t p =
  Atomic.set t.pins (List.filter (fun (tok, _) -> tok <> p.pn_token) (Atomic.get t.pins));
  Dsdg_obs.Obs.set_gauge g_pinned (List.length (Atomic.get t.pins))

let pinned_count t = List.length (Atomic.get t.pins)

let readers t =
  match t.readers with
  | None -> 0
  | Some ex -> ( match Exec.mode ex with `Sync -> 0 | `Pool n -> n)

(* --- persistence (Dsdg_store) --- *)

let view_components v = v.vw_components ()

(* Writer-side mutable scalars a checkpoint must capture synchronously
   (on the writer, at the trigger update) before handing the immutable
   view to a worker domain for serialization. *)
let dump_scalars t =
  let p = t.ops.op_probe () in
  ( t.ops.op_next_id (),
    p.pr_nf,
    match p.pr_clean with Some (c, _) -> c | None -> 0 )

(* Full synchronous dump: land in-flight jobs first so the snapshot is
   canonical (C0/Cj/Tk only), then capture the published view plus the
   writer scalars.  Background checkpoints skip the drain and dump the
   raw view instead -- restore folds any L/Temp components it finds. *)
let dump t : dump =
  t.ops.op_drain ();
  let v = t.ops.op_view () in
  let next_id, nf, del_counter = dump_scalars t in
  {
    dm_variant = t.config.variant;
    dm_backend = t.config.backend;
    dm_sample = t.config.sample;
    dm_tau = t.config.tau;
    dm_epoch = v.vw_epoch;
    dm_next_id = next_id;
    dm_nf = nf;
    dm_del_counter = del_counter;
    dm_components = v.vw_components ();
  }

(* Two-phase capture for background checkpoints: [checkpoint_header] is
   O(1) and must run on the writer domain (it reads writer-mutable
   scalars); [checkpoint_body] is the O(n) document extraction over the
   immutable view and may run on a checkpoint worker domain. *)
let checkpoint_header t (v : view) : dump =
  let next_id, nf, del_counter = dump_scalars t in
  {
    dm_variant = t.config.variant;
    dm_backend = t.config.backend;
    dm_sample = t.config.sample;
    dm_tau = t.config.tau;
    dm_epoch = v.vw_epoch;
    dm_next_id = next_id;
    dm_nf = nf;
    dm_del_counter = del_counter;
    dm_components = [];
  }

let checkpoint_body (d : dump) (v : view) : dump = { d with dm_components = v.vw_components () }

let empty_dump (c : Index_config.t) : dump =
  {
    dm_variant = c.variant;
    dm_backend = c.backend;
    dm_sample = c.sample;
    dm_tau = c.tau;
    dm_epoch = 0;
    dm_next_id = 0;
    dm_nf = 256;
    dm_del_counter = 0;
    dm_components = [];
  }

type mutation = Insert of string | Delete of int

(* Reduce a WAL tail to its net effect on a dump (DESIGN.md section 10).
   Ids go to inserts in log order, exactly as [insert] would assign
   them; a delete cancels a tail insert, sets the deletion bit of a live
   snapshot document, and is a no-op on a dead or unknown id.  The
   epoch advances by every successful mutation and the Dietz-Sleator
   counter by every deleted symbol, as per-op replay would advance
   them.  Returns the folded dump and, if any mutation succeeded, the
   surviving inserts in id order. *)
let fold_tail (d : dump) tail =
  if tail = [] then (d, None)
  else begin
    let comps = Array.of_list d.dm_components in
    let bits =
      Array.map
        (fun (_, docs, dead) ->
          if Array.length dead = Array.length docs then Array.copy dead
          else Array.make (Array.length docs) false)
        comps
    in
    let where = Hashtbl.create 1024 in
    Array.iteri
      (fun c (_, docs, _) ->
        Array.iteri
          (fun i (id, _) -> if not bits.(c).(i) then Hashtbl.replace where id (c, i))
          docs)
      comps;
    let inserted = Hashtbl.create 64 in
    let next_id = ref d.dm_next_id and applied = ref 0 and deleted_syms = ref 0 in
    let touched = Array.make (Array.length comps) false in
    List.iter
      (function
        | Insert text ->
          Hashtbl.replace inserted !next_id text;
          incr next_id;
          incr applied
        | Delete id -> (
          match Hashtbl.find_opt inserted id with
          | Some text ->
            Hashtbl.remove inserted id;
            incr applied;
            deleted_syms := !deleted_syms + String.length text + 1
          | None -> (
            match Hashtbl.find_opt where id with
            | None -> ()
            | Some (c, i) ->
              Hashtbl.remove where id;
              bits.(c).(i) <- true;
              touched.(c) <- true;
              incr applied;
              let _, docs, _ = comps.(c) in
              deleted_syms := !deleted_syms + String.length (snd docs.(i)) + 1)))
      tail;
    (* a touched component carries its new bit vector (a buffer's dump
       has none, so it gains one; restore builds only its live docs)
       unless the tail pushed it past the 1/tau dead share: then it is
       rebuilt from its live documents alone *)
    let components =
      List.mapi
        (fun c ((name, docs, _) as comp) ->
          if not touched.(c) then comp
          else begin
            let syms = Array.fold_left (fun a (_, text) -> a + String.length text + 1) 0 in
            let live =
              Array.of_list (List.filteri (fun i _ -> not bits.(c).(i)) (Array.to_list docs))
            in
            if
              Semi_static.purge_threshold_exceeded ~dead_syms:(syms docs - syms live)
                ~total_symbols:(syms docs) ~tau:d.dm_tau
            then (name, live, Array.make (Array.length live) false)
            else (name, docs, bits.(c))
          end)
        d.dm_components
    in
    let inserts =
      List.filter_map
        (fun id -> Option.map (fun text -> (id, text)) (Hashtbl.find_opt inserted id))
        (List.init (!next_id - d.dm_next_id) (fun k -> d.dm_next_id + k))
    in
    ( {
        d with
        dm_epoch = d.dm_epoch + !applied;
        dm_next_id = !next_id;
        dm_del_counter =
          (d.dm_del_counter + if d.dm_variant = Worst_case then !deleted_syms else 0);
        dm_components = components;
      },
      if !applied = 0 then None else Some inserts )
  end

(* The dump's shape wins; only the runtime fields come from [index]. *)
let restore ?(index = Index_config.default) ?(tail = []) (d : dump) : t =
  let d, tail = fold_tail d tail in
  make ~restore_from:d ?tail
    { index with variant = d.dm_variant; backend = d.dm_backend; sample = d.dm_sample; tau = d.dm_tau }

(* Run [f] against the latest published view -- on one of the reader
   domains when the index was created with [readers >= 1], inline
   otherwise.  The view is fetched inside the closure, on the reader
   domain, so a pooled query always sees the epoch current at the moment
   it actually runs.  With [~epoch] the view is resolved against the
   retention ring / pin table instead, so the query answers as of that
   point in time.  Exceptions from [f] are re-raised on the caller. *)
let query ?epoch t f =
  match epoch with
  | None -> (
    match t.readers with
    | None -> f (view t)
    | Some ex -> Exec.run ex ~name:"query" (fun _tick -> f (view t)))
  | Some e -> (
    match view_at t ~epoch:e with
    | None ->
      invalid_arg (Printf.sprintf "Dynamic_index.query: epoch %d is not retained or pinned" e)
    | Some v -> (
      match t.readers with
      | None -> f v
      | Some ex -> Exec.run ex ~name:"query" (fun _tick -> f v)))

(* Land every in-flight background job now (a forced completion of each;
   no-op for the amortized variants, whose rebuilds are synchronous). *)
let drain t = t.ops.op_drain ()

(* Drain, then stop and join the executor's worker domains (background
   rebuilds and the reader pool alike).  Required for a clean exit when
   [jobs > 0] or [readers > 0]; harmless otherwise.
   The index remains usable -- subsequent rebuilds run inline and
   queries fall back to the caller's domain. *)
let close t =
  t.ops.op_close ();
  match t.readers with None -> () | Some ex -> Exec.shutdown ex
