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

type probe = Dynamization.probe = {
  pr_census : (string * int * int) list;
  pr_capacity : int -> int;
  pr_nf : int;
  pr_tau : int;
  pr_pending_jobs : int;
  pr_jobs : (int * int * int) option;
  pr_clean : (int * int) option;
}

type dump = Dynamization.dump = {
  dm_variant : variant;
  dm_backend : backend;
  dm_sample : int;
  dm_tau : int;
  dm_epoch : int;
  dm_next_id : int;
  dm_docs : (int * string) array;
}

(* API conventions enforced uniformly across every variant x backend
   (the backends disagree on these edge cases, which is
   exactly the kind of drift the differential checker exists to catch):

   - the empty pattern is rejected with [Invalid_argument]: under the
     paper's occurrence definition [""] would match at every position of
     every live document (live symbols + one sentinel per document), a
     degenerate query no backend answers in sublinear time -- and the
     three static indexes each rejected it with a *different* message;
   - [extract ~len:0] is [Some ""] for a live document and [None] for a
     dead/absent one, regardless of [off] and of which sub-collection
     (including a locked [L_j] mid-rebuild) owns the document. *)
let pattern p = if p = "" then invalid_arg "Dynamic_index: empty pattern"

let cut ~mem ~extract ~doc ~off ~len =
  if len = 0 then if mem doc then Some "" else None else extract ~doc ~off ~len

(* A published view is the engine's [Epoch_view.t] itself: immutable end
   to end, so any domain (the reader pool, or raw [Domain.spawn]) may
   query it without synchronization. *)
type view = Epoch_view.t

type ops = {
  op_insert : string -> int;
  op_delete : int -> bool;
  op_doc_count : unit -> int;
  op_total_symbols : unit -> int;
  op_space_bits : unit -> int;
  op_describe : string;
  op_obs : Dsdg_obs.Obs.scope;
  op_events : unit -> string list;
  op_probe : unit -> probe;
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
  (* epochs [drain] published without an update, since create/restore *)
  mutable drain_epochs : int;
}

(* The engine of every variant x backend pair, and the only place a
   transformation is named. Transformation 1's functor serves both
   amortized variants (it reads the schedule from the config's variant);
   Transformation 2 runs at its default work factor. *)
let engines : ((variant * backend) * (module Dynamization.S)) list =
  List.concat_map
    (fun (backend, (module I : Static_index.S)) ->
      let t1 = (module Transform1.Make (I) : Dynamization.S) in
      let module T2 = Transform2.Make (I) in
      [
        ((Amortized, backend), t1);
        ((Amortized_loglog, backend), t1);
        ((Worst_case, backend), (module struct include T2 let create c = create c end));
      ])
    [ (Fm, (module Fm_static : Static_index.S)); (Plain_sa, (module Sa_static)); (Csa, (module Csa_static)) ]

(* Shared constructor behind [create] and [restore]: with [restore_from]
   the engine rebuilds from the dump's documents instead of starting
   empty; everything else (closure wiring, conventions, reader pool) is
   identical. *)
let make ?restore_from (config : Index_config.t) : t =
  let config = Index_config.validate config in
  let (module E) = List.assoc (config.variant, config.backend) engines in
  let e = match restore_from with None -> E.create config | Some d -> E.restore config d in
  let ops =
    {
      op_insert = E.insert e;
      op_delete = E.delete e;
      op_doc_count = (fun () -> E.doc_count e);
      op_total_symbols = (fun () -> E.total_symbols e);
      op_space_bits = (fun () -> E.space_bits e);
      op_describe = E.describe e;
      op_obs = E.obs e;
      op_events = (fun () -> E.events e);
      op_probe = (fun () -> E.probe e);
      op_view = (fun () -> E.view e);
      op_drain = (fun () -> E.drain e);
      op_close = (fun () -> E.close e);
    }
  in
  let readers =
    if config.readers > 0 then
      Some
        (Exec.create
           ~obs:(Dsdg_obs.Obs.private_scope (ops.op_describe ^ "/readers"))
           ~workers:config.readers ())
    else None
  in
  {
    ops;
    readers;
    config;
    (* the view it starts from is retained like every later one *)
    ring = Atomic.make (if config.retain_epochs > 0 then [ ops.op_view () ] else []);
    pins = Atomic.make [];
    pin_next = Atomic.make 0;
    drain_epochs = 0;
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
    | w :: _ when w.Epoch_view.epoch >= v.Epoch_view.epoch -> ()
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

let doc_count t = t.ops.op_doc_count ()
let total_symbols t = t.ops.op_total_symbols ()
let space_bits t = t.ops.op_space_bits ()
let describe t = t.ops.op_describe

(* The underlying transformation's observability scope (counters,
   histograms, event ring) and its rendered recent-event log. *)
let obs_scope t = t.ops.op_obs
let events t = t.ops.op_events ()
let probe t = t.ops.op_probe ()

(* --- read plane --- *)

(* The latest published epoch: one Atomic.get.  The returned view is
   immutable and never changes -- re-fetch to see later updates. *)
let view t = t.ops.op_view ()
let view_epoch (v : view) = v.epoch
let view_doc_count (v : view) = v.docs
let view_total_symbols (v : view) = v.symbols
let view_census = Epoch_view.census
let view_mem = Epoch_view.mem

let view_iter_matches v p ~f =
  pattern p;
  Epoch_view.search v p ~f

let view_search v p =
  pattern p;
  Epoch_view.matches v p

let view_count v p =
  pattern p;
  Epoch_view.count v p

let view_extract v = cut ~mem:(Epoch_view.mem v) ~extract:(Epoch_view.extract v)

(* The one query path: every query reads the latest published view. *)
let mem t id = view_mem (view t) id
let iter_matches t p ~f = view_iter_matches (view t) p ~f
let search t p = view_search (view t) p
let count t p = view_count (view t) p
let extract t ~doc ~off ~len = view_extract (view t) ~doc ~off ~len

(* --- epoch retention and pinning --- *)

let retain_epochs t = t.config.retain_epochs

(* Resolve an epoch against the live view, the retention ring, then the
   pin table.  Wait-free on any domain: each is one Atomic.get over
   immutable data. *)
let view_at t ~epoch =
  let v = t.ops.op_view () in
  if view_epoch v = epoch then Some v
  else
    match List.find_opt (fun w -> view_epoch w = epoch) (Atomic.get t.ring) with
    | Some _ as hit -> hit
    | None -> (
      match List.find_opt (fun (_, w) -> view_epoch w = epoch) (Atomic.get t.pins) with
      | Some (_, w) -> Some w
      | None -> None)

let retained t =
  let v = t.ops.op_view () in
  let ring = List.map view_epoch (Atomic.get t.ring) in
  let pinned = List.map (fun (_, w) -> view_epoch w) (Atomic.get t.pins) in
  List.sort_uniq compare ((view_epoch v :: ring) @ pinned)

type pin = { pn_token : int; pn_view : view }

let pin_view p = p.pn_view
let pin_epoch p = view_epoch p.pn_view

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

let next_id t = (view t).next_id
let drain_epochs t = t.drain_epochs

(* The one dump that inverts the index: every live document of [v], read
   from its immutable components (safe off the writer). *)
let view_dump t (v : view) : dump =
  {
    dm_variant = t.config.variant;
    dm_backend = t.config.backend;
    dm_sample = t.config.sample;
    dm_tau = t.config.tau;
    dm_epoch = v.epoch;
    dm_next_id = v.next_id;
    dm_docs = Epoch_view.live_docs v;
  }

let dump t = view_dump t (view t)

let empty_dump (c : Index_config.t) : dump =
  {
    dm_variant = c.variant;
    dm_backend = c.backend;
    dm_sample = c.sample;
    dm_tau = c.tau;
    dm_epoch = 0;
    dm_next_id = 0;
    dm_docs = [||];
  }

type mutation = Insert of string | Delete of int

(* The net effect of logged mutations on a dump (DESIGN.md section 10):
   ids go to inserts in log order, exactly as [insert] would assign
   them; a delete of a live document (dumped or inserted by the tail)
   drops it and a delete of a dead or unknown id does nothing; the
   epoch advances by every successful mutation, as per-op replay would
   advance it.  The dumped ids ascend and every id the tail assigns is
   past them, so the result is the dumped documents the tail left, then
   the tail's surviving inserts. *)
let fold_tail (d : dump) tail =
  if tail = [] then d
  else begin
    let rec slot id lo hi =
      if lo >= hi then None
      else
        let mid = (lo + hi) / 2 in
        let m = fst d.dm_docs.(mid) in
        if m = id then Some mid else if m < id then slot id (mid + 1) hi else slot id lo mid
    in
    let gone = Hashtbl.create 64 and inserted = Hashtbl.create 64 in
    let next_id = ref d.dm_next_id and applied = ref 0 in
    List.iter
      (function
        | Insert text ->
          Hashtbl.replace inserted !next_id text;
          incr next_id;
          incr applied
        | Delete id -> (
          if Hashtbl.mem inserted id then begin
            Hashtbl.remove inserted id;
            incr applied
          end
          else
            match slot id 0 (Array.length d.dm_docs) with
            | Some i when not (Hashtbl.mem gone i) ->
              Hashtbl.replace gone i ();
              incr applied
            | _ -> ()))
      tail;
    let kept =
      if Hashtbl.length gone = 0 then d.dm_docs
      else Array.of_list (List.filteri (fun i _ -> not (Hashtbl.mem gone i)) (Array.to_list d.dm_docs))
    in
    let inserts =
      List.filter_map
        (fun id -> Option.map (fun text -> (id, text)) (Hashtbl.find_opt inserted id))
        (List.init (!next_id - d.dm_next_id) (( + ) d.dm_next_id))
    in
    {
      d with
      dm_epoch = d.dm_epoch + !applied;
      dm_next_id = !next_id;
      dm_docs = Array.append kept (Array.of_list inserts);
    }
  end

(* The dump's shape wins; only the runtime fields come from [index]. *)
let restore ?(index = Index_config.default) ?(tail = []) (d : dump) : t =
  let d = fold_tail d tail in
  make ~restore_from:d
    { index with variant = d.dm_variant; backend = d.dm_backend; sample = d.dm_sample; tau = d.dm_tau }

(* Run [f] against the latest published view -- on one of the reader
   domains when the index was created with [readers >= 1], inline
   otherwise.  The view is fetched inside the closure, on the reader
   domain, so a pooled query always sees the epoch current at the moment
   it actually runs.  With [~epoch] the view is resolved against the
   retention ring / pin table instead, so the query answers as of that
   point in time.  Exceptions from [f] are re-raised on the caller. *)
let query ?epoch t f =
  let fetch =
    match epoch with
    | None -> fun () -> view t
    | Some e -> (
      match view_at t ~epoch:e with
      | Some v -> fun () -> v
      | None ->
        invalid_arg (Printf.sprintf "Dynamic_index.query: epoch %d is not retained or pinned" e))
  in
  match t.readers with
  | None -> f (fetch ())
  | Some ex -> Exec.run ex ~name:"query" (fun _tick -> f (fetch ()))

(* Land every in-flight background job now (a forced completion of each;
   no-op for the amortized variants, whose rebuilds are synchronous). *)
let drain t =
  let e = view_epoch (view t) in
  t.ops.op_drain ();
  t.drain_epochs <- t.drain_epochs + (view_epoch (view t) - e)

(* Drain, then stop and join the executor's worker domains (background
   rebuilds and the reader pool alike).  Required for a clean exit when
   [jobs > 0] or [readers > 0]; harmless otherwise.
   The index remains usable -- subsequent rebuilds run inline and
   queries fall back to the caller's domain. *)
let close t =
  t.ops.op_close ();
  match t.readers with None -> () | Some ex -> Exec.shutdown ex
