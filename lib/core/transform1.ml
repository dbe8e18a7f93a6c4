(* Transformation 1 (Section 2): static index -> fully-dynamic index with
   amortized update bounds.

   The collection is split into C0 (an uncompressed document buffer,
   [Doc_buffer]) and sub-collections C1..Cr held in semi-static
   deletion-only indexes whose maximum sizes grow geometrically:

       max_j = 2 (nf / log^2 nf) * log^(eps*j) nf.

   A new document goes to the smallest Cj that can absorb it together
   with all smaller sub-collections (logarithmic method).  Deletions are
   lazy; a sub-collection is purged when a 1/tau fraction of its symbols
   is dead.  A global rebuild re-snapshots nf when the live size doubles
   or halves.

   The index config's variant picks the schedule: [Amortized] gives
   [geometric], the paper's Transformation 1 (O(1) sub-collections,
   O(u log^eps n) insertion, eps = 1/2); [Amortized_loglog] gives
   [doubling], Transformation 3 from Appendix A.4 (O(log log n)
   sub-collections, O(u log log n) insertion).

   Merge/purge/rebuild accounting goes through the shared Dsdg_obs.Obs
   layer; [stats] is a read-only view over those counters. *)

open Dsdg_obs

type schedule = {
  schedule_name : string;
  slots : int -> int; (* nf -> index r of the last sub-collection *)
  max_size : int -> int -> int; (* nf -> j -> max_j *)
}

let log2 x = log x /. log 2.

let epsilon = 0.5

let geometric =
  let r = int_of_float (ceil (2. /. epsilon)) + 1 in
  {
    schedule_name = Printf.sprintf "geometric(eps=%.2f)" epsilon;
    slots = (fun _nf -> r);
    max_size =
      (fun nf j ->
        let nff = float_of_int (max nf 256) in
        let lg = max 2. (log2 nff) in
        let base = 2. *. nff /. (lg *. lg) in
        max 64 (int_of_float (base *. (lg ** (epsilon *. float_of_int j)))));
  }

let doubling =
  {
    schedule_name = "doubling";
    slots =
      (fun nf ->
        let nff = float_of_int (max nf 256) in
        let lg = max 2. (log2 nff) in
        max 2 (int_of_float (ceil (2. *. log2 lg)) + 1));
    max_size =
      (fun nf j ->
        let nff = float_of_int (max nf 256) in
        let lg = max 2. (log2 nff) in
        let base = 2. *. nff /. (lg *. lg) in
        max 64 (int_of_float (base *. (2. ** float_of_int j))));
  }

(* Read-only snapshot of the amortization counters. *)
type stats = {
  merges : int;
  purges : int;
  global_rebuilds : int;
  symbols_rebuilt : int;
}

module Make (I : Static_index.S) = struct
  module SS = Semi_static.Make (I)

  (* Sub-collection slots are stored in a fixed array of generous size;
     the live prefix in use is [1 .. slots nf]. *)
  let max_slots = 64

  type t = {
    schedule : schedule;
    name : string; (* "transform1/<backend>" or "transform3/<backend>" *)
    sample : int;
    tau : int;
    mutable c0 : Doc_buffer.t;
    subs : SS.t option array; (* C_1 .. C_r *)
    mutable doc_count : int; (* live documents *)
    mutable next_id : int;
    mutable nf : int;
    mutable live : int; (* live symbols including separators *)
    published : Epoch_view.publisher; (* the read plane *)
    obs : Obs.scope;
    c_merges : Obs.counter;
    c_purges : Obs.counter;
    c_global_rebuilds : Obs.counter;
    c_symbols_rebuilt : Obs.counter;
    c_inserts : Obs.counter;
    c_deletes : Obs.counter;
    h_insert_ns : Obs.histogram;
    h_delete_ns : Obs.histogram;
    h_purge_dead_frac : Obs.histogram; (* per-mille dead fraction at purge time *)
  }

  let create ({ variant; sample; tau; _ } : Index_config.t) =
    let schedule, transform =
      if variant = Index_config.Amortized_loglog then (doubling, "transform3") else (geometric, "transform1")
    in
    let obs = Obs.private_scope ("transform1/" ^ I.name) in
    {
      schedule;
      name = transform ^ "/" ^ I.name;
      sample;
      tau;
      c0 = Doc_buffer.create ();
      published = Epoch_view.publisher obs;
      subs = Array.make (max_slots + 1) None;
      doc_count = 0;
      next_id = 0;
      nf = 256;
      live = 0;
      obs;
      c_merges = Obs.counter obs "merges";
      c_purges = Obs.counter obs "purges";
      c_global_rebuilds = Obs.counter obs "global_rebuilds";
      c_symbols_rebuilt = Obs.counter obs "symbols_rebuilt";
      c_inserts = Obs.counter obs "inserts";
      c_deletes = Obs.counter obs "deletes";
      h_insert_ns = Obs.histogram obs "insert_ns";
      h_delete_ns = Obs.histogram obs "delete_ns";
      h_purge_dead_frac = Obs.histogram obs "purge_dead_permille";
    }

  let obs t = t.obs
  let events t = List.map (fun (_, e) -> Obs.event_to_string e) (Obs.recent t.obs)

  let stats t =
    {
      merges = Obs.value t.c_merges;
      purges = Obs.value t.c_purges;
      global_rebuilds = Obs.value t.c_global_rebuilds;
      symbols_rebuilt = Obs.value t.c_symbols_rebuilt;
    }

  let r_of t = min max_slots (t.schedule.slots t.nf)
  let max_size t j = t.schedule.max_size t.nf j

  (* Read-only introspection for the differential checker (Dsdg_check):
     the current nf snapshot and the schedule's capacity for level j. *)
  let nf t = t.nf
  let level_capacity t j = max_size t j
  let sub_size t j = match t.subs.(j) with None -> 0 | Some ss -> SS.live_symbols ss

  let doc_count t = t.doc_count
  let total_symbols t = t.live
  let schedule_name t = t.schedule.schedule_name
  let describe t = t.name

  (* Gather all live documents of slot [j] (None -> []). *)
  let sub_docs t j =
    match t.subs.(j) with
    | None -> []
    | Some ss -> SS.live_docs ss

  let build_sub t (docs : (int * string) list) : SS.t =
    let arr = Array.of_list docs in
    Obs.add t.c_symbols_rebuilt
      (Array.fold_left (fun a (_, s) -> a + String.length s + 1) 0 arr);
    SS.build ~sample:t.sample ~tau:t.tau arr

  (* --- read plane --- *)

  (* Publish the next epoch: C0 and every sub-collection, each frozen
     once per mutation (the buffer / SS caches), in census order. *)
  let publish t ~cause =
    Epoch_view.publish t.published ~cause ~docs:t.doc_count ~symbols:t.live
      ~next_id:t.next_id (fun () ->
        let subs = ref [] in
        for j = max_slots downto 1 do
          match t.subs.(j) with
          | None -> ()
          | Some ss -> subs := (Epoch_view.c_name j, SS.snapshot ss) :: !subs
        done;
        ("C0", Doc_buffer.snapshot t.c0) :: !subs)

  let view t = Epoch_view.latest t.published

  (* Move every live document into the top sub-collection and re-snapshot
     nf (the paper's global re-build). *)
  let global_rebuild t ~extra =
    Obs.incr t.c_global_rebuilds;
    let docs = ref (Doc_buffer.docs t.c0) in
    for j = 1 to max_slots do
      docs := sub_docs t j @ !docs;
      t.subs.(j) <- None
    done;
    let docs = extra @ !docs in
    t.c0 <- Doc_buffer.create ();
    let total = List.fold_left (fun a (_, s) -> a + String.length s + 1) 0 docs in
    t.nf <- max 256 total;
    t.live <- total;
    let r = r_of t in
    if docs <> [] then t.subs.(r) <- Some (build_sub t docs);
    Obs.record t.obs (Obs.Restructure { nf = t.nf; structures = (if docs = [] then 0 else 1) })

  (* The logarithmic method's placement rule for a batch of new
     documents totalling [size] symbols: C0 if they fit, else the
     smallest j with |C0| + .. + |Cj| + size <= max_j (C0..Cj merge with
     the batch into Cj), else a global rebuild. *)
  let place t docs size =
    let r = r_of t in
    if Doc_buffer.live_symbols t.c0 + size <= max_size t 0 then begin
      List.iter (fun (id, text) -> Doc_buffer.insert t.c0 ~doc:id text) docs;
      t.live <- t.live + size
    end
    else begin
      let rec find j acc =
        if j > r then None
        else begin
          let acc = acc + sub_size t j in
          if acc + size <= max_size t j then Some j else find (j + 1) acc
        end
      in
      match find 1 (Doc_buffer.live_symbols t.c0) with
      | Some j ->
        Obs.incr t.c_merges;
        Obs.record t.obs (Obs.Merge { from_level = 0; into_level = j; sync = true });
        let docs = ref (Doc_buffer.docs t.c0 @ docs) in
        for i = 1 to j do
          docs := sub_docs t i @ !docs;
          t.subs.(i) <- None
        done;
        t.c0 <- Doc_buffer.create ();
        t.subs.(j) <- Some (build_sub t !docs);
        t.live <- t.live + size
      | None -> global_rebuild t ~extra:docs
    end;
    if t.live > 2 * t.nf then global_rebuild t ~extra:[]

  let insert t (text : string) : int =
    let t0 = Obs.start () in
    let id = t.next_id in
    t.next_id <- t.next_id + 1;
    t.doc_count <- t.doc_count + 1;
    place t [ (id, text) ] (String.length text + 1);
    publish t ~cause:`Update;
    Obs.incr t.c_inserts;
    Obs.stop t.h_insert_ns t0;
    id

  (* Purge a sub-collection that has accumulated too many dead symbols:
     rebuild it in place from its live documents. *)
  let purge t j =
    match t.subs.(j) with
    | None -> ()
    | Some ss ->
      Obs.incr t.c_purges;
      let dead = SS.dead_symbols ss in
      let total = SS.live_symbols ss + dead in
      Obs.observe t.h_purge_dead_frac (if total = 0 then 0 else dead * 1000 / total);
      Obs.record t.obs (Obs.Purge { level = j; dead; total });
      let docs = SS.live_docs ss in
      t.subs.(j) <- (if docs = [] then None else Some (build_sub t docs))

  (* Restore from a flat dump as one global rebuild: every document
     into one sub-collection under nf set to their size.  The first
     published view continues the dump's epoch, so epoch = completed
     updates keeps holding across a restart. *)
  let restore config (d : Dynamization.dump) =
    let t = create config in
    t.next_id <- d.dm_next_id;
    t.doc_count <- Array.length d.dm_docs;
    global_rebuild t ~extra:(Array.to_list d.dm_docs);
    publish t ~cause:(`Restored d.dm_epoch);
    t

  (* The document is found in C0, else by the sub-collections' own id
     arrays.  Deleting a nonexistent document returns false and leaves
     every counter and structure untouched. *)
  let delete t id =
    let t0 = Obs.start () in
    let rec in_sub j =
      if j > max_slots then None
      else
        match t.subs.(j) with
        | None -> in_sub (j + 1)
        | Some ss -> (
          match SS.doc_len ss id with
          | None -> in_sub (j + 1)
          | Some len ->
            ignore (SS.delete ss id);
            if SS.needs_purge ss then purge t j;
            Some (len + 1))
    in
    let found =
      match Doc_buffer.find t.c0 id with
      | Some contents ->
        ignore (Doc_buffer.delete t.c0 id);
        Some (String.length contents + 1)
      | None -> in_sub 1
    in
    match found with
    | None -> false
    | Some len ->
      t.doc_count <- t.doc_count - 1;
      t.live <- t.live - len;
      if t.live * 2 < t.nf && t.nf > 256 then global_rebuild t ~extra:[];
      publish t ~cause:`Update;
      Obs.incr t.c_deletes;
      Obs.stop t.h_delete_ns t0;
      true

  (* Merge everything into one sub-collection now (an explicit global
     rebuild): afterwards a view lists a single static index plus the
     empty C0.  The library-management analogue of a force-merge. *)
  let consolidate t =
    global_rebuild t ~extra:[];
    publish t ~cause:`Consolidate

  (* Live and dead sizes of all sub-collections: the measured
     counterpart of the paper's Figure 1. *)
  let census t =
    let acc = ref [ ("C0", Doc_buffer.live_symbols t.c0, 0) ] in
    for j = 1 to max_slots do
      match t.subs.(j) with
      | None -> ()
      | Some ss -> acc := (Printf.sprintf "C%d" j, SS.live_symbols ss, SS.dead_symbols ss) :: !acc
    done;
    List.rev !acc

  let space_bits t =
    let sub_space =
      Array.fold_left (fun a -> function None -> a | Some ss -> a + SS.space_bits ss) 0 t.subs
    in
    Doc_buffer.space_bits t.c0 + sub_space

  let probe t : Dynamization.probe =
    {
      pr_census = census t;
      pr_capacity = level_capacity t;
      pr_nf = t.nf;
      pr_tau = t.tau;
      pr_pending_jobs = 0;
      pr_jobs = None;
      pr_clean = None;
    }

  (* Rebuilds are synchronous: nothing is ever in flight, and there is
     no pool to stop. *)
  let drain _ = ()
  let close _ = ()
end
