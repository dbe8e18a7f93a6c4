(* k2-tree-style dynamic adjacency matrix (Brisaboa et al., "Compressed
   Representation of Dynamic Binary Relations").

   The node x node boolean matrix is a recursive 16-ary quadtree: every
   inner node covers a [side x side] submatrix (side a power of four
   times the leaf side) and splits it into a 4x4 grid of subsquares;
   empty subsquares are not represented.  An inner node stores a packed
   child bitmap -- a 16-bit mask of non-empty subsquares plus an array
   holding only the present children, indexed by popcount over the mask
   prefix (the k2-tree trick, on the existing lib/bits primitives).

   Leaves cover [64 x 64] submatrices and adapt their representation to
   their population: sparse leaves hold a sorted array of 12-bit cell
   offsets (row-major, packed five to a word), dense leaves switch to a
   4096-bit {!Dsdg_bits.Bitvec} bitmap once the offset array would
   outgrow it, and convert back (with hysteresis) as removals drain
   them.  A lone edge in its own subtree therefore costs a handful of
   words, while a popular 64x64 block bottoms out at one bit per cell.

   The universe grows dynamically: adding a pair beyond the current
   side wraps the root into subsquare 0 of a four-times-as-large matrix
   (coordinates only ever extend upward, so the old tree is always the
   low block).  Removal prunes emptied leaves and inner nodes on the
   unwind, so the structure occupies space only for the blocks that
   intersect live pairs.  Unlike {!Dyn_binrel} there is no amortized
   rebuild schedule: every update touches one root-to-leaf path,
   O(log side) nodes. *)

open Dsdg_bits
open Dsdg_obs

let leaf_side = 64
let leaf_cells = leaf_side * leaf_side (* 4096; offsets fit 12 bits *)
let branch = 4 (* 4x4 subsquares per inner node *)

(* Sparse leaves pack five 12-bit offsets per word, so at [dense_at]
   pairs the offset array reaches the bitmap's 67 words and the leaf
   flips to a bitmap; [sparse_at] adds hysteresis on the way down. *)
let dense_at = 335
let sparse_at = 300

(* --- packed 12-bit offset arrays (sorted, row-major) --- *)

let pk_words n = (n + 4) / 5
let pk_get a i = (a.(i / 5) lsr (12 * (i mod 5))) land 0xfff

let pk_set a i v =
  let w = i / 5 and sh = 12 * (i mod 5) in
  a.(w) <- a.(w) land lnot (0xfff lsl sh) lor (v lsl sh)

(* first index whose offset is >= v (n if none) *)
let pk_lower a n v =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if pk_get a mid < v then lo := mid + 1 else hi := mid
  done;
  !lo

let pk_insert a n idx v =
  let b = Array.make (pk_words (n + 1)) 0 in
  for i = 0 to idx - 1 do
    pk_set b i (pk_get a i)
  done;
  pk_set b idx v;
  for i = idx to n - 1 do
    pk_set b (i + 1) (pk_get a i)
  done;
  b

let pk_remove a n idx =
  let b = Array.make (pk_words (n - 1)) 0 in
  for i = 0 to idx - 1 do
    pk_set b i (pk_get a i)
  done;
  for i = idx + 1 to n - 1 do
    pk_set b (i - 1) (pk_get a i)
  done;
  b

(* --- adaptive leaves --- *)

type cells = Sparse of int array | Dense of Bitvec.t

(* [rows] is an approximate row-occupancy filter: bit [r land 31] is
   set whenever row r holds a cell (rows r and r+32 alias -- one word
   of filter is cheaper than two, and with a couple of cells per
   typical leaf the aliasing costs almost nothing).  Set on every add,
   rebuilt on the dense->sparse conversion, never cleared by individual
   removes.  Row scans test it first, so the many leaves a row strip
   crosses that hold nothing in that particular row are rejected with
   one word test instead of a search. *)
type leaf = { mutable n : int; mutable cells : cells; mutable rows : int }

type node = Leaf of leaf | Inner of inner

and inner = {
  mutable mask : int; (* bit q set iff subsquare q is non-empty *)
  mutable kids : node array; (* packed: only present subsquares, in q order *)
}

let new_leaf () = { n = 0; cells = Sparse [||]; rows = 0 }

let leaf_mem lf off =
  match lf.cells with
  | Dense bv -> Bitvec.unsafe_get bv off
  | Sparse a ->
    let i = pk_lower a lf.n off in
    i < lf.n && pk_get a i = off

let mark_row lf off = lf.rows <- lf.rows lor (1 lsl (off / leaf_side land 31))
let row_maybe lf r = (lf.rows lsr (r land 31)) land 1 <> 0

let leaf_add lf off =
  mark_row lf off;
  match lf.cells with
  | Dense bv ->
    if Bitvec.unsafe_get bv off then false
    else begin
      Bitvec.set bv off;
      lf.n <- lf.n + 1;
      true
    end
  | Sparse a ->
    let i = pk_lower a lf.n off in
    if i < lf.n && pk_get a i = off then false
    else begin
      (if lf.n + 1 >= dense_at then begin
         let bv = Bitvec.create leaf_cells in
         for j = 0 to lf.n - 1 do
           Bitvec.set bv (pk_get a j)
         done;
         Bitvec.set bv off;
         lf.cells <- Dense bv
       end
       else lf.cells <- Sparse (pk_insert a lf.n i off));
      lf.n <- lf.n + 1;
      true
    end

(* returns (removed, leaf now empty) *)
let leaf_remove lf off =
  match lf.cells with
  | Dense bv ->
    if not (Bitvec.unsafe_get bv off) then (false, false)
    else begin
      Bitvec.clear bv off;
      lf.n <- lf.n - 1;
      if lf.n < sparse_at then begin
        let a = Array.make (pk_words lf.n) 0 in
        let j = ref 0 in
        lf.rows <- 0;
        (* iter_ones ascends, so the packed array comes out sorted;
           the row-occupancy bitmap is rebuilt exactly as a side effect *)
        Bitvec.iter_ones
          (fun o ->
            pk_set a !j o;
            incr j;
            mark_row lf o)
          bv;
        lf.cells <- Sparse a
      end;
      (true, lf.n = 0)
    end
  | Sparse a ->
    let i = pk_lower a lf.n off in
    if i >= lf.n || pk_get a i <> off then (false, false)
    else begin
      lf.cells <- Sparse (pk_remove a lf.n i);
      lf.n <- lf.n - 1;
      (true, lf.n = 0)
    end

type stats = { grows : int }

type t = {
  mutable side : int; (* current matrix side; leaf_side * 4^k *)
  mutable root : node option;
  mutable live : int;
  obs : Obs.scope;
  c_adds : Obs.counter;
  c_removes : Obs.counter;
  c_grows : Obs.counter;
}

(* [tau] is accepted for signature uniformity with {!Dyn_binrel} but
   unused: there is no lazy-deletion schedule to tune. *)
let create () =
  let obs = Obs.private_scope "k2rel" in
  {
    side = leaf_side;
    root = None;
    live = 0;
    obs;
    c_adds = Obs.counter obs "adds";
    c_removes = Obs.counter obs "removes";
    c_grows = Obs.counter obs "grows";
  }

let obs t = t.obs
let stats t = { grows = Obs.value t.c_grows }
let live_pairs t = t.live
let side t = t.side

(* --- packed child bitmaps --- *)

let kid_slot mask q = Popcount.count (mask land ((1 lsl q) - 1))

let kid inner q =
  if inner.mask land (1 lsl q) = 0 then None else Some inner.kids.(kid_slot inner.mask q)

let dummy = Leaf { n = 0; cells = Sparse [||]; rows = 0 }

let set_kid inner q n =
  let slot = kid_slot inner.mask q in
  if inner.mask land (1 lsl q) <> 0 then inner.kids.(slot) <- n
  else begin
    let old = inner.kids in
    let len = Array.length old in
    let kids = Array.make (len + 1) n in
    Array.blit old 0 kids 0 slot;
    Array.blit old slot kids (slot + 1) (len - slot);
    inner.mask <- inner.mask lor (1 lsl q);
    inner.kids <- kids
  end

let remove_kid inner q =
  let slot = kid_slot inner.mask q in
  let old = inner.kids in
  let len = Array.length old in
  let kids = Array.make (max 0 (len - 1)) dummy in
  Array.blit old 0 kids 0 slot;
  Array.blit old (slot + 1) kids slot (len - 1 - slot);
  inner.mask <- inner.mask land lnot (1 lsl q);
  inner.kids <- kids

(* subsquare of (r, c) within a node of side [s]: row band picks the
   high two bits, column band the low two, so kids stay in row-major
   block order and row/column enumeration comes out ascending. *)
let square ~sub r c = (r / sub * branch) + (c / sub)

(* --- membership --- *)

let rec mem_node node ~s r c =
  match node with
  | Leaf lf -> leaf_mem lf ((r * leaf_side) + c)
  | Inner inner -> (
    let sub = s / branch in
    match kid inner (square ~sub r c) with
    | None -> false
    | Some n -> mem_node n ~s:sub (r mod sub) (c mod sub))

let related t o a =
  o >= 0 && a >= 0 && o < t.side && a < t.side
  && match t.root with None -> false | Some n -> mem_node n ~s:t.side o a

(* --- insertion --- *)

let rec add_node node ~s r c =
  match node with
  | Leaf lf -> leaf_add lf ((r * leaf_side) + c)
  | Inner inner ->
    let sub = s / branch in
    let q = square ~sub r c in
    let child =
      match kid inner q with
      | Some n -> n
      | None ->
        let n =
          if sub = leaf_side then Leaf (new_leaf ()) else Inner { mask = 0; kids = [||] }
        in
        set_kid inner q n;
        n
    in
    add_node child ~s:sub (r mod sub) (c mod sub)

let grow t =
  (match t.root with
  | None -> ()
  | Some old -> t.root <- Some (Inner { mask = 1; kids = [| old |] }));
  t.side <- branch * t.side;
  Obs.incr t.c_grows;
  Obs.record t.obs (Obs.Restructure { nf = t.side; structures = 1 })

let add t o a =
  if o < 0 || a < 0 then invalid_arg "K2_relation.add: negative id";
  while o >= t.side || a >= t.side do
    grow t
  done;
  let root =
    match t.root with
    | Some n -> n
    | None ->
      let n =
        if t.side = leaf_side then Leaf (new_leaf ()) else Inner { mask = 0; kids = [||] }
      in
      t.root <- Some n;
      n
  in
  let added = add_node root ~s:t.side o a in
  if added then begin
    t.live <- t.live + 1;
    Obs.incr t.c_adds
  end;
  added

(* --- deletion (with path pruning) --- *)

(* returns (removed, child now empty) *)
let rec remove_node node ~s r c =
  match node with
  | Leaf lf -> leaf_remove lf ((r * leaf_side) + c)
  | Inner inner -> (
    let sub = s / branch in
    let q = square ~sub r c in
    match kid inner q with
    | None -> (false, false)
    | Some n ->
      let removed, empty = remove_node n ~s:sub (r mod sub) (c mod sub) in
      if empty then remove_kid inner q;
      (removed, removed && inner.mask = 0))

let remove t o a =
  if o < 0 || a < 0 || o >= t.side || a >= t.side then false
  else
    match t.root with
    | None -> false
    | Some root ->
      let removed, empty = remove_node root ~s:t.side o a in
      if empty then t.root <- None;
      if removed then begin
        t.live <- t.live - 1;
        Obs.incr t.c_removes
      end;
      removed

(* --- row / column enumeration --- *)

let leaf_iter_row lf ~cbase r ~f =
  if not (row_maybe lf r) then ()
  else
  let lo = r * leaf_side in
  match lf.cells with
  | Dense bv ->
    for c = 0 to leaf_side - 1 do
      if Bitvec.unsafe_get bv (lo + c) then f (cbase + c)
    done
  | Sparse a ->
    (* row-major offsets: the row is one contiguous sorted run *)
    let i = ref (pk_lower a lf.n lo) in
    let hi = lo + leaf_side in
    let continue = ref true in
    while !continue && !i < lf.n do
      let off = pk_get a !i in
      if off < hi then begin
        f (cbase + off - lo);
        incr i
      end
      else continue := false
    done

let leaf_iter_col lf ~rbase c ~f =
  match lf.cells with
  | Dense bv ->
    for r = 0 to leaf_side - 1 do
      if Bitvec.unsafe_get bv ((r * leaf_side) + c) then f (rbase + r)
    done
  | Sparse a ->
    for i = 0 to lf.n - 1 do
      let off = pk_get a i in
      if off land (leaf_side - 1) = c then f (rbase + (off / leaf_side))
    done

(* Enumerate row r of [node] (columns ascending: kids are visited in
   row-major block order, so the four column bands of the row's band
   are adjacent and ascending). *)
let rec iter_row node ~s ~cbase r ~f =
  match node with
  | Leaf lf -> leaf_iter_row lf ~cbase r ~f
  | Inner inner ->
    let sub = s / branch in
    let qr = r / sub * branch in
    let r' = r mod sub in
    for qc = 0 to branch - 1 do
      match kid inner (qr + qc) with
      | Some n -> iter_row n ~s:sub ~cbase:(cbase + (qc * sub)) r' ~f
      | None -> ()
    done

let rec iter_col node ~s ~rbase c ~f =
  match node with
  | Leaf lf -> leaf_iter_col lf ~rbase c ~f
  | Inner inner ->
    let sub = s / branch in
    let qc = c / sub in
    let c' = c mod sub in
    for qr = 0 to branch - 1 do
      match kid inner ((qr * branch) + qc) with
      | Some n -> iter_col n ~s:sub ~rbase:(rbase + (qr * sub)) c' ~f
      | None -> ()
    done

let labels_of_object t o ~f =
  if o >= 0 && o < t.side then
    match t.root with None -> () | Some n -> iter_row n ~s:t.side ~cbase:0 o ~f

let objects_of_label t a ~f =
  if a >= 0 && a < t.side then
    match t.root with None -> () | Some n -> iter_col n ~s:t.side ~rbase:0 a ~f

(* enumeration is already ascending; collect without re-sorting *)
let labels_of_object_list t o =
  let acc = ref [] in
  labels_of_object t o ~f:(fun a -> acc := a :: !acc);
  List.rev !acc

let objects_of_label_list t a =
  let acc = ref [] in
  objects_of_label t a ~f:(fun o -> acc := o :: !acc);
  List.rev !acc

let count_labels_of_object t o =
  let n = ref 0 in
  labels_of_object t o ~f:(fun _ -> incr n);
  !n

let count_objects_of_label t a =
  let n = ref 0 in
  objects_of_label t a ~f:(fun _ -> incr n);
  !n

(* --- full traversal (persistence) --- *)

let rec iter_node node ~s ~rbase ~cbase ~f =
  match node with
  | Leaf lf -> (
    match lf.cells with
    | Dense bv ->
      Bitvec.iter_ones (fun i -> f (rbase + (i / leaf_side)) (cbase + (i mod leaf_side))) bv
    | Sparse a ->
      for i = 0 to lf.n - 1 do
        let off = pk_get a i in
        f (rbase + (off / leaf_side)) (cbase + (off mod leaf_side))
      done)
  | Inner inner ->
    let sub = s / branch in
    for q = 0 to (branch * branch) - 1 do
      match kid inner q with
      | None -> ()
      | Some n ->
        iter_node n ~s:sub ~rbase:(rbase + (q / branch * sub)) ~cbase:(cbase + (q mod branch * sub))
          ~f
    done

(* Every live pair, in block (quadtree) order -- the snapshot unit,
   exactly as for {!Dyn_binrel}. *)
let iter_pairs t ~f =
  match t.root with None -> () | Some n -> iter_node n ~s:t.side ~rbase:0 ~cbase:0 ~f

let pairs_list t =
  let acc = ref [] in
  iter_pairs t ~f:(fun o a -> acc := (o, a) :: !acc);
  List.sort compare !acc

(* --- space --- *)

let word_bits = Popcount.word_bits

(* Measured resident size: per inner node one mask word, two words of
   array bookkeeping and one word per present child pointer; per leaf
   its population word, a pointer word, and either the packed offset
   array or the bitmap.  All directory constants included -- comparable
   with [Dyn_binrel.space_bits]. *)
let space_bits t =
  let rec go = function
    | Leaf lf -> (
      match lf.cells with
      | Sparse a -> (4 + Array.length a) * word_bits
      | Dense bv -> Bitvec.space_bits bv + (3 * word_bits))
    | Inner inner ->
      Array.fold_left
        (fun acc n -> acc + go n)
        ((3 + Array.length inner.kids) * word_bits)
        inner.kids
  in
  match t.root with None -> word_bits | Some n -> word_bits + go n
