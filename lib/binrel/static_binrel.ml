(* Deletion-only compact binary relation (Section 5, first half).

   A relation R between objects and labels is stored as
   - S: the labels, listed object by object, in an H0-compressed
     (Huffman-shaped) wavelet tree -- nH bits where H is the zero-order
     entropy of S, exactly the space term of Theorem 2;
   - N: the unary object-degree sequence 1^{n_1} 0 1^{n_2} 0 ...;
   - D: a Reporter (Lemma 3) over S marking live pairs (with integrated
     O(log n) range counting for labels-of-object);
   - Da: per label, a Reporter over that label's occurrences, plus a
     plain live counter (objects of a label need only totals).

   Objects and labels are arbitrary external ints; internally they are
   mapped to dense local indices (the "effective alphabet" of the paper's
   GC bitmaps plays this role in the dynamic wrapper). *)

open Dsdg_bits
open Dsdg_wavelet
open Dsdg_delbits

type t = {
  objects : int array; (* sorted external object ids *)
  labels : int array; (* sorted external label ids *)
  s : Huffman_wavelet.t; (* local labels in object order *)
  n_bv : Rank_select.t; (* unary degrees: object i owns 1-runs *)
  d : Reporter.t;
  da : Reporter.t array; (* per local label: live occurrences *)
  da_live : int array; (* per local label: live count *)
  obj_start : int array; (* local object -> first S position *)
  mutable live_pairs : int;
  mutable dead_pairs : int;
  tau : int;
}

(* Sorted distinct ids, with int-specialised comparisons throughout. *)
let distinct_sorted (ids : int array) =
  let a = Array.copy ids in
  Array.sort Int.compare a;
  let n = Array.length a in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || a.(i) <> a.(i - 1) then begin
      a.(!k) <- a.(i);
      incr k
    end
  done;
  Array.sub a 0 !k

let compare_pair ((o1, a1) : int * int) ((o2, a2) : int * int) =
  if o1 <> o2 then Int.compare o1 o2 else Int.compare a1 a2

let find_local (arr : int array) (v : int) : int option =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) <= v then lo := mid else hi := mid
  done;
  if Array.length arr > 0 && arr.(!lo) = v then Some !lo else None

let build ?(tick = fun () -> ()) ~tau (pairs : (int * int) array) : t =
  if tau < 1 then invalid_arg "Static_binrel.build: tau";
  let n = Array.length pairs in
  let objects = distinct_sorted (Array.map fst pairs) in
  let labels = distinct_sorted (Array.map snd pairs) in
  let t_objs = Array.length objects in
  let local_obj v = match find_local objects v with Some i -> i | None -> assert false in
  let local_lab v = match find_local labels v with Some i -> i | None -> assert false in
  (* sort pairs by (object, label) and reject duplicates *)
  let sorted = Array.map (fun (o, a) -> (local_obj o, local_lab a)) pairs in
  Array.sort compare_pair sorted;
  for i = 1 to n - 1 do
    if compare_pair sorted.(i) sorted.(i - 1) = 0 then
      invalid_arg "Static_binrel.build: duplicate pair"
  done;
  let s_arr = Array.map snd sorted in
  let sigma_l = Array.length labels in
  let s = Huffman_wavelet.build ~tick ~sigma:(max 1 sigma_l) s_arr in
  (* N: for each object, its degree in unary *)
  let n_bits = Bitvec.create (n + t_objs) in
  let obj_start = Array.make (t_objs + 1) 0 in
  let pos = ref 0 in
  let cur = ref 0 in
  Array.iteri
    (fun i (o, _) ->
      tick ();
      while !cur < o do
        incr cur;
        obj_start.(!cur) <- i;
        incr pos
      done;
      Bitvec.set n_bits !pos;
      incr pos)
    sorted;
  while !cur < t_objs do
    incr cur;
    obj_start.(!cur) <- n;
    incr pos
  done;
  let da =
    Array.init (max 1 sigma_l) (fun a -> Reporter.create_full (Huffman_wavelet.count s a))
  in
  let da_live = Array.init (max 1 sigma_l) (fun a -> Huffman_wavelet.count s a) in
  {
    objects;
    labels;
    s;
    n_bv = Rank_select.build n_bits;
    d = Reporter.create_full n;
    da;
    da_live;
    obj_start;
    live_pairs = n;
    dead_pairs = 0;
    tau;
  }

let live_pairs t = t.live_pairs
let dead_pairs t = t.dead_pairs
let total_pairs t = t.live_pairs + t.dead_pairs
let needs_purge t = t.dead_pairs * t.tau > total_pairs t
let is_empty t = t.live_pairs = 0

(* S-range of an external object, if present. *)
let obj_range t o =
  match find_local t.objects o with
  | None -> None
  | Some i -> Some (i, t.obj_start.(i), t.obj_start.(i + 1))

(* S-position of pair (o, a), if the pair is in the relation (live or
   dead). *)
let pair_pos t o a =
  match (obj_range t o, find_local t.labels a) with
  | Some (_, l, r), Some la ->
    let before = Huffman_wavelet.rank t.s la l in
    let within = Huffman_wavelet.rank t.s la r - before in
    if within = 0 then None
    else begin
      (* the relation is a set: at most one occurrence of la in [l, r) *)
      let j = Huffman_wavelet.select t.s la before in
      if j < r then Some (la, j) else None
    end
  | _ -> None

let related t o a =
  match pair_pos t o a with None -> false | Some (_, j) -> Reporter.get t.d j

(* Report the external labels related to object [o]. *)
let labels_of_object t o ~f =
  match obj_range t o with
  | None -> ()
  | Some (_, l, r) ->
    Reporter.report t.d l r (fun j -> f t.labels.(Huffman_wavelet.access t.s j))

(* Report the external objects related to label [a]. *)
let objects_of_label t a ~f =
  match find_local t.labels a with
  | None -> ()
  | Some la ->
    let rep = t.da.(la) in
    Reporter.report rep 0 (Reporter.length rep) (fun k ->
        let j = Huffman_wavelet.select t.s la k in
        (* object owning S position j, via the unary degree sequence N *)
        let obj = Rank_select.rank0 t.n_bv (Rank_select.select1 t.n_bv j) in
        f t.objects.(obj))

let count_labels_of_object t o =
  match obj_range t o with None -> 0 | Some (_, l, r) -> Reporter.count_range t.d l r

let count_objects_of_label t a =
  match find_local t.labels a with
  | None -> 0
  | Some la -> t.da_live.(la)

let delete t o a =
  match pair_pos t o a with
  | None -> false
  | Some (la, j) ->
    if not (Reporter.get t.d j) then false
    else begin
      Reporter.zero t.d j;
      let k = Huffman_wavelet.rank t.s la j in
      Reporter.zero t.da.(la) k;
      t.da_live.(la) <- t.da_live.(la) - 1;
      t.live_pairs <- t.live_pairs - 1;
      t.dead_pairs <- t.dead_pairs + 1;
      true
    end

(* All live pairs, for rebuilds. *)
let live_pairs_list ?(tick = fun () -> ()) t =
  let acc = ref [] in
  Reporter.report t.d 0 (Reporter.length t.d) (fun j ->
      tick ();
      let la = Huffman_wavelet.access t.s j in
      let obj = Rank_select.rank0 t.n_bv (Rank_select.select1 t.n_bv j) in
      acc := (t.objects.(obj), t.labels.(la)) :: !acc);
  List.rev !acc

let space_bits t =
  Huffman_wavelet.space_bits t.s + Rank_select.space_bits t.n_bv
  + Reporter.space_bits t.d
  + Array.fold_left (fun acc r -> acc + Reporter.space_bits r) 0 t.da
  + (Array.length t.da_live * 63)
  + ((Array.length t.objects + Array.length t.labels + Array.length t.obj_start) * 63)
