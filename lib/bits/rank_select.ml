(* Static rank/select directory over an (immutable from here on) Bitvec.

   Layout: superblocks of [sb_words] words; [super.(k)] is the number of
   1-bits strictly before superblock [k].  rank scans at most [sb_words]
   words; select binary-searches superblocks then scans.  A vector that
   fits in one superblock gets no directory at all ([super = [||]]):
   every count starts from 0 there, so the scan alone answers.

   The [*_in] functions work on the bare word array and directory, so a
   structure with many small bit vectors (the nodes of a wavelet tree)
   can keep both in its own record instead of two extra blocks per
   vector. *)

let w = Popcount.word_bits
let sb_words = 8
let sb_bits = sb_words * w

type t = {
  bv : Bitvec.t;
  super : int array;
  ones : int;
}

let directory words =
  let nw = Array.length words in
  if nw <= sb_words then [||]
  else begin
    let nsb = (nw + sb_words - 1) / sb_words in
    let super = Array.make (nsb + 1) 0 in
    let acc = ref 0 in
    for j = 0 to nw - 1 do
      if j mod sb_words = 0 then super.(j / sb_words) <- !acc;
      acc := !acc + Popcount.count words.(j)
    done;
    super.(nsb) <- !acc;
    super
  end

(* 1-bits before superblock [sb]. *)
let[@inline] before super sb = if sb = 0 then 0 else Array.unsafe_get super sb

(* Number of 1-bits in positions [0, i); [i] at most the vector length. *)
let rank1_in words super i =
  if i = 0 then 0
  else begin
    let word = (i - 1) / w in
    let sb = word / sb_words in
    let acc = ref (before super sb) in
    for j = sb * sb_words to word - 1 do
      acc := !acc + Popcount.count (Array.unsafe_get words j)
    done;
    let rem = i - (word * w) in
    !acc + Popcount.count (Array.unsafe_get words word land Popcount.low_mask rem)
  end

(* [2 * rank1 i + bit i] for [i] below the vector length, from the one
   word that holds bit [i]. *)
let rank_bit_in words super i =
  let word = i / w in
  let sb = word / sb_words in
  let acc = ref (before super sb) in
  for j = sb * sb_words to word - 1 do
    acc := !acc + Popcount.count (Array.unsafe_get words j)
  done;
  let x = Array.unsafe_get words word and off = i mod w in
  ((!acc + Popcount.count (x land Popcount.low_mask off)) lsl 1) lor ((x lsr off) land 1)

(* Position of the [k]-th (0-based) 1-bit.  Requires [0 <= k < ones].
   The binary search finds the last superblock with at most [k] ones
   before it; with no directory it is superblock 0.  Plain loops over
   unboxed refs: a local closure would be allocated on every call. *)
let select1_in words super k =
  let lo = ref 0 and hi = ref (Array.length super - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get super mid <= k then lo := mid else hi := mid
  done;
  let nw = Array.length words in
  let acc = ref (before super !lo) and j = ref (!lo * sb_words) in
  let c = ref (Popcount.count words.(!j)) in
  while !acc + !c <= k do
    acc := !acc + !c;
    incr j;
    if !j >= nw then invalid_arg "Rank_select.select1: corrupt directory";
    c := Popcount.count (Array.unsafe_get words !j)
  done;
  (!j * w) + Popcount.select (Array.unsafe_get words !j) (k - !acc)

(* 0-bits before superblock [sb] of a [len]-bit vector. *)
let[@inline] zeros_before super ~len sb =
  (if sb * sb_bits < len then sb * sb_bits else len) - before super sb

(* Word [j] of a [len]-bit vector inverted, its bits from [len] on clear. *)
let[@inline] inverted words ~len j =
  let mask =
    if j < Array.length words - 1 then Popcount.low_mask w else Popcount.low_mask (len - (j * w))
  in
  mask land lnot (Array.unsafe_get words j)

(* Position of the [k]-th (0-based) 0-bit of a [len]-bit vector.
   Requires [0 <= k < zeros]. *)
let select0_in words super ~len k =
  let lo = ref 0 and hi = ref (Array.length super - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if zeros_before super ~len mid <= k then lo := mid else hi := mid
  done;
  let nw = Array.length words in
  let acc = ref (zeros_before super ~len !lo) and j = ref (!lo * sb_words) in
  let c = ref (Popcount.count (inverted words ~len !j)) in
  while !acc + !c <= k do
    acc := !acc + !c;
    incr j;
    if !j >= nw then invalid_arg "Rank_select.select0: corrupt directory";
    c := Popcount.count (inverted words ~len !j)
  done;
  (!j * w) + Popcount.select (inverted words ~len !j) (k - !acc)

let directory_bits super = if Array.length super = 0 then 0 else (Array.length super + 1) * 63

let build bv = { bv; super = directory (Bitvec.words bv); ones = Bitvec.count bv }
let ones t = t.ones
let zeros t = Bitvec.length t.bv - t.ones
let get t i = Bitvec.get t.bv i

let rank1 t i =
  if i < 0 || i > Bitvec.length t.bv then invalid_arg "Rank_select.rank1";
  rank1_in (Bitvec.words t.bv) t.super i

let rank0 t i = i - rank1 t i

let select1 t k =
  if k < 0 || k >= t.ones then invalid_arg "Rank_select.select1";
  select1_in (Bitvec.words t.bv) t.super k

let select0 t k =
  if k < 0 || k >= zeros t then invalid_arg "Rank_select.select0";
  select0_in (Bitvec.words t.bv) t.super ~len:(Bitvec.length t.bv) k

let space_bits t = Bitvec.space_bits t.bv + directory_bits t.super + (4 * 63)
