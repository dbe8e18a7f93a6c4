(* Fully-dynamic compact binary relation (Theorem 2).

   Layout mirrors Transformation 1 applied to object-label pairs:
   - C0: an uncompressed buffer (nested hashtables, O(log n) bits/pair)
     holding at most ~ 2n/log^2 n pairs;
   - C1..Cr: geometrically growing deletion-only Static_binrel structures;
   - lazy pair deletion with per-structure purge at the 1/tau threshold;
   - global rebuild when the live size doubles or halves.

   External object and label ids are arbitrary ints; each static
   sub-structure stores only its effective alphabet (the role of the
   paper's SN/NS tables and GC bitmaps).  Merging is synchronous
   (amortized bounds); DESIGN.md records this as a deviation from the
   paper's worst-case background variant, which lib/core/transform2.ml
   realizes for document collections. *)

type buffer = {
  by_obj : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  by_lab : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  mutable pairs : int;
}

let buffer_create () = { by_obj = Hashtbl.create 32; by_lab = Hashtbl.create 32; pairs = 0 }

let buffer_add b o a =
  let row =
    match Hashtbl.find_opt b.by_obj o with
    | Some r -> r
    | None ->
      let r = Hashtbl.create 4 in
      Hashtbl.replace b.by_obj o r;
      r
  in
  if Hashtbl.mem row a then false
  else begin
    Hashtbl.replace row a ();
    let col =
      match Hashtbl.find_opt b.by_lab a with
      | Some c -> c
      | None ->
        let c = Hashtbl.create 4 in
        Hashtbl.replace b.by_lab a c;
        c
    in
    Hashtbl.replace col o ();
    b.pairs <- b.pairs + 1;
    true
  end

let buffer_mem b o a =
  match Hashtbl.find_opt b.by_obj o with None -> false | Some r -> Hashtbl.mem r a

let buffer_remove b o a =
  if not (buffer_mem b o a) then false
  else begin
    let row = Hashtbl.find b.by_obj o in
    Hashtbl.remove row a;
    if Hashtbl.length row = 0 then Hashtbl.remove b.by_obj o;
    let col = Hashtbl.find b.by_lab a in
    Hashtbl.remove col o;
    if Hashtbl.length col = 0 then Hashtbl.remove b.by_lab a;
    b.pairs <- b.pairs - 1;
    true
  end

(* C0's pairs as one run in (object, label) order: sorted once, it is
   small. *)
let buffer_run b =
  let objs = Array.make b.pairs 0 and labs = Array.make b.pairs 0 in
  let k = ref 0 in
  Hashtbl.iter
    (fun o row ->
      Hashtbl.iter
        (fun a () ->
          objs.(!k) <- o;
          labs.(!k) <- a;
          incr k)
        row)
    b.by_obj;
  Static_binrel.sort_pairs objs labs

(* Two runs of pairs, each in (object, label) order and disjoint from
   the other, as one. *)
let merge (o1, l1) (o2, l2) =
  let n1 = Array.length o1 and n2 = Array.length o2 in
  let objs = Array.make (n1 + n2) 0 and labs = Array.make (n1 + n2) 0 in
  let i = ref 0 and j = ref 0 in
  for k = 0 to n1 + n2 - 1 do
    if !j >= n2 || (!i < n1 && (o1.(!i) < o2.(!j) || (o1.(!i) = o2.(!j) && l1.(!i) < l2.(!j))))
    then begin
      objs.(k) <- o1.(!i);
      labs.(k) <- l1.(!i);
      incr i
    end
    else begin
      objs.(k) <- o2.(!j);
      labs.(k) <- l2.(!j);
      incr j
    end
  done;
  (objs, labs)

(* k-way merge, smallest runs first, so a pair is copied about as often
   as the run sizes double. *)
let merge_runs runs =
  match List.sort (fun (a, _) (b, _) -> Int.compare (Array.length a) (Array.length b)) runs with
  | [] -> ([||], [||])
  | r :: rest -> List.fold_left merge r rest

open Dsdg_obs

(* Read-only snapshot of the amortization counters. *)
type stats = { merges : int; purges : int; global_rebuilds : int }

type t = {
  tau : int;
  mutable c0 : buffer;
  subs : Static_binrel.t option array;
  mutable nf : int;
  mutable live : int;
  obs : Obs.scope;
  c_merges : Obs.counter;
  c_purges : Obs.counter;
  c_global_rebuilds : Obs.counter;
  c_adds : Obs.counter;
  c_removes : Obs.counter;
}

let max_slots = 8

let create ?(tau = 8) () =
  (* checked here, not at the first merge that builds a sub-structure *)
  if tau < 1 then invalid_arg "Dyn_binrel.create: tau";
  let obs = Obs.private_scope "binrel" in
  {
    tau;
    c0 = buffer_create ();
    subs = Array.make (max_slots + 1) None;
    nf = 256;
    live = 0;
    obs;
    c_merges = Obs.counter obs "merges";
    c_purges = Obs.counter obs "purges";
    c_global_rebuilds = Obs.counter obs "global_rebuilds";
    c_adds = Obs.counter obs "adds";
    c_removes = Obs.counter obs "removes";
  }

let obs t = t.obs

let stats t =
  {
    merges = Obs.value t.c_merges;
    purges = Obs.value t.c_purges;
    global_rebuilds = Obs.value t.c_global_rebuilds;
  }
let live_pairs t = t.live

(* --- persistence (Dsdg_store) --- *)

(* The live runs of slots [lo..hi]. *)
let sub_runs t lo hi =
  List.filter_map
    (fun j -> Option.map Static_binrel.live_sorted t.subs.(j))
    (List.init (hi - lo + 1) (fun i -> lo + i))

(* Every live pair, across the C0 buffer and all sub-structures, as one
   run.  The snapshot unit: a relation has no other state worth
   persisting (nf is restored as the pair count, the slot layout is an
   amortization artifact rebuilt on reinsertion). *)
let all_pairs t = merge_runs (buffer_run t.c0 :: sub_runs t 1 max_slots)

let iter_pairs t ~f =
  let objs, labs = all_pairs t in
  Array.iteri (fun i o -> f o labs.(i)) objs

let pairs_list t =
  let objs, labs = all_pairs t in
  List.init (Array.length objs) (fun i -> (objs.(i), labs.(i)))

let max_size t j =
  let nff = float_of_int (max t.nf 256) in
  let lg = max 2. (log nff /. log 2.) in
  let base = 2. *. nff /. (lg *. lg) in
  max 32 (int_of_float (base *. (lg ** (0.5 *. float_of_int j))))

let sub_live t j = match t.subs.(j) with None -> 0 | Some sb -> Static_binrel.live_pairs sb

let build_sub t (objs, labs) = Static_binrel.of_sorted ~tau:t.tau objs labs

(* Make the run [(objs, labs)] the whole relation: one static structure
   in the top slot, nf re-snapshotted to its size.  This is the state a
   global rebuild leaves behind, and the bulk build [of_pairs]. *)
let install t ((objs, _) as run) =
  let n = Array.length objs in
  t.c0 <- buffer_create ();
  Array.fill t.subs 0 (Array.length t.subs) None;
  t.nf <- max 256 n;
  t.live <- n;
  if n > 0 then t.subs.(max_slots) <- Some (build_sub t run)

let global_rebuild t ~extra =
  Obs.incr t.c_global_rebuilds;
  install t (merge_runs (Option.to_list extra @ [ buffer_run t.c0 ] @ sub_runs t 1 max_slots));
  Obs.record t.obs (Obs.Restructure { nf = t.nf; structures = (if t.live = 0 then 0 else 1) })

(* Bulk build: construction, not a rebuild, so no counter moves.
   Duplicates are dropped once the sort makes them adjacent. *)
let of_pairs ?tau pairs =
  let t = create ?tau () in
  let pairs = Array.of_list pairs in
  let objs, labs = Static_binrel.sort_pairs (Array.map fst pairs) (Array.map snd pairs) in
  let k = ref 0 in
  for i = 0 to Array.length pairs - 1 do
    if !k = 0 || objs.(i) <> objs.(!k - 1) || labs.(i) <> labs.(!k - 1) then begin
      objs.(!k) <- objs.(i);
      labs.(!k) <- labs.(i);
      incr k
    end
  done;
  install t (Array.sub objs 0 !k, Array.sub labs 0 !k);
  t

let related t o a =
  buffer_mem t.c0 o a
  || Array.exists (function None -> false | Some sb -> Static_binrel.related sb o a) t.subs

(* Add pair (o, a); false if already present. *)
let add t o a =
  if related t o a then false
  else begin
    if t.c0.pairs + 1 <= max_size t 0 then ignore (buffer_add t.c0 o a)
    else begin
      (* cascade: smallest j that can absorb C0..Cj plus the new pair *)
      let rec find j acc =
        if j > max_slots then None
        else begin
          let acc = acc + sub_live t j in
          if acc + 1 <= max_size t j then Some j else find (j + 1) acc
        end
      in
      match find 1 t.c0.pairs with
      | Some j ->
        Obs.incr t.c_merges;
        Obs.record t.obs (Obs.Merge { from_level = 0; into_level = j; sync = true });
        let run = merge_runs (([| o |], [| a |]) :: buffer_run t.c0 :: sub_runs t 1 j) in
        Array.fill t.subs 1 j None;
        t.c0 <- buffer_create ();
        t.subs.(j) <- Some (build_sub t run)
      | None -> global_rebuild t ~extra:(Some ([| o |], [| a |]))
    end;
    t.live <- t.live + 1;
    if t.live > 2 * t.nf then global_rebuild t ~extra:None;
    Obs.incr t.c_adds;
    true
  end

let purge t j =
  match t.subs.(j) with
  | None -> ()
  | Some sb ->
    Obs.incr t.c_purges;
    let live = Static_binrel.live_pairs sb in
    let dead = Static_binrel.total_pairs sb - live in
    Obs.record t.obs (Obs.Purge { level = j; dead; total = live + dead });
    t.subs.(j) <- (if live = 0 then None else Some (build_sub t (Static_binrel.live_sorted sb)))

(* Remove pair (o, a); false if absent. *)
let remove t o a =
  if buffer_remove t.c0 o a then begin
    t.live <- t.live - 1;
    if 2 * t.live < t.nf && t.nf > 256 then global_rebuild t ~extra:None;
    Obs.incr t.c_removes;
    true
  end
  else begin
    let done_ = ref false in
    for j = 1 to max_slots do
      match t.subs.(j) with
      | Some sb when not !done_ ->
        if Static_binrel.delete sb o a then begin
          done_ := true;
          t.live <- t.live - 1;
          if Static_binrel.needs_purge sb then purge t j
        end
      | _ -> ()
    done;
    if !done_ && 2 * t.live < t.nf && t.nf > 256 then global_rebuild t ~extra:None;
    if !done_ then Obs.incr t.c_removes;
    !done_
  end

let labels_of_object t o ~f =
  (match Hashtbl.find_opt t.c0.by_obj o with
  | None -> ()
  | Some row -> Hashtbl.iter (fun a () -> f a) row);
  Array.iter
    (function None -> () | Some sb -> Static_binrel.labels_of_object sb o ~f)
    t.subs

let objects_of_label t a ~f =
  (match Hashtbl.find_opt t.c0.by_lab a with
  | None -> ()
  | Some col -> Hashtbl.iter (fun o () -> f o) col);
  Array.iter
    (function None -> () | Some sb -> Static_binrel.objects_of_label sb a ~f)
    t.subs

let labels_of_object_list t o =
  let acc = ref [] in
  labels_of_object t o ~f:(fun a -> acc := a :: !acc);
  List.sort compare !acc

let objects_of_label_list t a =
  let acc = ref [] in
  objects_of_label t a ~f:(fun o -> acc := o :: !acc);
  List.sort compare !acc

let count_labels_of_object t o =
  let c0 = match Hashtbl.find_opt t.c0.by_obj o with None -> 0 | Some row -> Hashtbl.length row in
  Array.fold_left
    (fun acc -> function None -> acc | Some sb -> acc + Static_binrel.count_labels_of_object sb o)
    c0 t.subs

let count_objects_of_label t a =
  let c0 = match Hashtbl.find_opt t.c0.by_lab a with None -> 0 | Some col -> Hashtbl.length col in
  Array.fold_left
    (fun acc -> function None -> acc | Some sb -> acc + Static_binrel.count_objects_of_label sb a)
    c0 t.subs

let space_bits t =
  let c0_bits = t.c0.pairs * 4 * 63 in
  Array.fold_left
    (fun acc -> function None -> acc | Some sb -> acc + Static_binrel.space_bits sb)
    c0_bits t.subs
