(* Deletion-only compact binary relation (Section 5, first half).

   A relation R between objects and labels is stored as
   - S: the labels, listed object by object, in an H0-compressed
     (Huffman-shaped) wavelet tree -- nH bits where H is the zero-order
     entropy of S, exactly the space term of Theorem 2;
   - D: a Reporter (Lemma 3) over S marking live pairs (with integrated
     O(log n) range counting for labels-of-object);
   - Da: one Reporter over the pairs in label order (S's stable sort
     by label): label a's k-th occurrence in S is bit [c_before.(a) + k],
     where [c_before] holds the prefix sums of the label histogram;
   - obj_start: each object's first S position.  It stands in for the
     paper's unary degree sequence N (1^{n_1} 0 1^{n_2} 0 ...): an S
     position's object is found by searching it, not by select and rank
     on N.

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
  d : Reporter.t;
  da : Reporter.t; (* live pairs in label order *)
  c_before : int array; (* local label -> pairs with a smaller label *)
  obj_start : int array; (* local object -> first S position *)
  tau : int;
}

(* The last i in [lo, hi) with [arr.(i) <= v] of a sorted [arr], given
   [arr.(lo) <= v]; [lo] itself if the range is empty. *)
let last_le (arr : int array) lo hi v =
  let lo = ref lo and hi = ref hi in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) <= v then lo := mid else hi := mid
  done;
  !lo

let find_local (arr : int array) (v : int) : int option =
  let i = last_le arr 0 (Array.length arr) v in
  if Array.length arr > 0 && arr.(i) = v then Some i else None

(* Stable LSD radix sort of [perm] by [key.(perm.(i))], over 11-bit
   digits of the key with its sign bit flipped: unsigned digit order is
   then signed int order, for every int, so nothing is packed and
   nothing overflows.  A digit on which all keys agree costs no pass. *)
let radix = 11

let sort_by (key : int array) (perm : int array) =
  let n = Array.length perm and mask = (1 lsl radix) - 1 in
  let set = ref 0 and clear = ref 0 in
  Array.iter
    (fun p ->
      set := !set lor key.(p);
      clear := !clear lor lnot key.(p))
    perm;
  let varying = !set land !clear in
  let count = Array.make (mask + 1) 0 in
  let src = ref perm and dst = ref (if varying = 0 then perm else Array.make n 0) in
  for digit = 0 to (Sys.int_size - 1) / radix do
    let s = digit * radix and src' = !src and dst' = !dst in
    if (varying lsr s) land mask <> 0 then begin
      Array.fill count 0 (mask + 1) 0;
      for i = 0 to n - 1 do
        let d = ((key.(src'.(i)) lxor min_int) lsr s) land mask in
        count.(d) <- count.(d) + 1
      done;
      let sum = ref 0 in
      for d = 0 to mask do
        let c = count.(d) in
        count.(d) <- !sum;
        sum := !sum + c
      done;
      for i = 0 to n - 1 do
        let p = src'.(i) in
        let d = ((key.(p) lxor min_int) lsr s) land mask in
        dst'.(count.(d)) <- p;
        count.(d) <- count.(d) + 1
      done;
      src := dst';
      dst := src'
    end
  done;
  if !src != perm then Array.blit !src 0 perm 0 n

let sort_pairs objs labs =
  let perm = Array.init (Array.length objs) Fun.id in
  sort_by labs perm;
  sort_by objs perm;
  (Array.map (fun p -> objs.(p)) perm, Array.map (fun p -> labs.(p)) perm)

(* Linear passes over pairs sorted by (object, label): objects and
   [obj_start] by one scan, labels by one sort and dedupe that also
   names each pair's local label, Da's offsets from the label
   histogram. *)
let of_sorted ~tau (objs : int array) (labs : int array) : t =
  if tau < 1 then invalid_arg "Static_binrel.build: tau";
  let n = Array.length objs in
  let t_objs = ref (min n 1) in
  for i = 1 to n - 1 do
    let o = objs.(i) and o' = objs.(i - 1) in
    if o = o' && labs.(i) = labs.(i - 1) then invalid_arg "Static_binrel.build: duplicate pair";
    if o < o' || (o = o' && labs.(i) < labs.(i - 1)) then
      invalid_arg "Static_binrel.build: pairs not sorted";
    if o <> o' then incr t_objs
  done;
  let t_objs = !t_objs in
  let objects = Array.make t_objs 0 and obj_start = Array.make (t_objs + 1) n in
  let k = ref (-1) in
  for i = 0 to n - 1 do
    if i = 0 || objs.(i) <> objs.(i - 1) then begin
      incr k;
      objects.(!k) <- objs.(i);
      obj_start.(!k) <- i
    end
  done;
  let perm = Array.init n Fun.id in
  sort_by labs perm;
  let s_arr = Array.make n 0 and distinct = Array.make n 0 in
  let sigma_l = ref 0 in
  for r = 0 to n - 1 do
    let a = labs.(perm.(r)) in
    if r = 0 || a <> distinct.(!sigma_l - 1) then begin
      distinct.(!sigma_l) <- a;
      incr sigma_l
    end;
    s_arr.(perm.(r)) <- !sigma_l - 1
  done;
  let sigma = max 1 !sigma_l in
  let c_before = Array.make (sigma + 1) 0 in
  Array.iter (fun a -> c_before.(a + 1) <- c_before.(a + 1) + 1) s_arr;
  for a = 1 to sigma do
    c_before.(a) <- c_before.(a) + c_before.(a - 1)
  done;
  {
    objects;
    labels = Array.sub distinct 0 !sigma_l;
    s = Huffman_wavelet.build ~sigma s_arr;
    d = Reporter.create_full n;
    da = Reporter.create_full n;
    c_before;
    obj_start;
    tau;
  }

let build ~tau (pairs : (int * int) array) : t =
  let objs, labs = sort_pairs (Array.map fst pairs) (Array.map snd pairs) in
  of_sorted ~tau objs labs

let live_pairs t = Reporter.ones t.d
let total_pairs t = Reporter.length t.d
let dead_pairs t = total_pairs t - live_pairs t
let needs_purge t = dead_pairs t * t.tau > total_pairs t
let is_empty t = live_pairs t = 0

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

(* The local object owning S position [j], given an object [k] at or
   before it ([obj_start.(k) <= j]): gallop forward from [k], then
   binary search the last step.  [obj_start]'s last entry is n, past
   every position. *)
let owner obj_start k j =
  let last = Array.length obj_start - 1 in
  let lo = ref k and step = ref 1 in
  while !lo + !step < last && obj_start.(!lo + !step) <= j do
    lo := !lo + !step;
    step := 2 * !step
  done;
  last_le obj_start !lo (if !lo + !step < last then !lo + !step else last) j

(* Report the external objects related to label [a].  Its occurrences
   come out in increasing S order, so each one's object is searched for
   forward from the previous one's. *)
let objects_of_label t a ~f =
  match find_local t.labels a with
  | None -> ()
  | Some la ->
    let base = t.c_before.(la) in
    let obj = ref 0 in
    Reporter.report t.da base t.c_before.(la + 1) (fun p ->
        obj := owner t.obj_start !obj (Huffman_wavelet.select t.s la (p - base));
        f t.objects.(!obj))

let count_labels_of_object t o =
  match obj_range t o with None -> 0 | Some (_, l, r) -> Reporter.count_range t.d l r

let count_objects_of_label t a =
  match find_local t.labels a with
  | None -> 0
  | Some la -> Reporter.count_range t.da t.c_before.(la) t.c_before.(la + 1)

let delete t o a =
  match pair_pos t o a with
  | Some (la, j) when Reporter.get t.d j ->
    Reporter.zero t.d j;
    Reporter.zero t.da (t.c_before.(la) + Huffman_wavelet.rank t.s la j);
    true
  | _ -> false

(* All live pairs in (object, label) order: S decoded in bulk, then one
   walk over the objects' S-ranges reading D a word at a time. *)
let live_sorted t =
  let w = Popcount.word_bits in
  let s = Huffman_wavelet.to_array t.s in
  let objs = Array.make (live_pairs t) 0 and labs = Array.make (live_pairs t) 0 in
  let k = ref 0 in
  for o = 0 to Array.length t.objects - 1 do
    for j = t.obj_start.(o) to t.obj_start.(o + 1) - 1 do
      if (Reporter.word t.d (j / w) lsr (j mod w)) land 1 = 1 then begin
        objs.(!k) <- t.objects.(o);
        labs.(!k) <- t.labels.(s.(j));
        incr k
      end
    done
  done;
  (objs, labs)

let space_bits t =
  Huffman_wavelet.space_bits t.s + Reporter.space_bits t.d + Reporter.space_bits t.da
  + ((Array.length t.objects + Array.length t.labels + Array.length t.c_before
     + Array.length t.obj_start)
    * 63)
