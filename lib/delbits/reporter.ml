(* Lemma 2/3 structure: a bit vector B supporting

     zero i        -- clear bit i
     report s e f  -- call f on every set position in [s, e)   O(k)
     next_one      -- successor query (-1 when there is none)

   Implementation substitute for the Mortensen-Pagh-Patrascu dynamic range
   reporting structure: a hierarchy of summary bitmaps with 62-way fanout.
   Finding the next set bit costs O(log_62 n) word probes -- effectively
   constant -- and zeroing costs the same, matching the role the lemma
   plays in the paper (report in O(k), updates in O(log^eps n)). *)

open Dsdg_bits

let w = Popcount.word_bits

type t = {
  len : int;
  levels : int array array; (* levels.(0): the words of B; each higher level summarises non-emptiness *)
  mutable ones : int;
  counts : Fenwick.t; (* live bits per level-0 word: O(log n) range counting
                          (Theorem 1) at ~1 bit of overhead per position *)
}

let words_for n = if n = 0 then 1 else (n + w - 1) / w

(* Build the summary pyramid on top of a level-0 word array. *)
let build_levels level0 =
  let levels = ref [ level0 ] in
  let cur = ref level0 in
  while Array.length !cur > 1 do
    let nw = words_for (Array.length !cur) in
    let next = Array.make nw 0 in
    Array.iteri (fun i x -> if x <> 0 then next.(i / w) <- next.(i / w) lor (1 lsl (i mod w))) !cur;
    levels := next :: !levels;
    cur := next
  done;
  Array.of_list (List.rev !levels)

let counts_of_level0 level0 = Fenwick.of_array (Array.map Popcount.count level0)

(* All bits initially one. *)
let create_full len =
  if len < 0 then invalid_arg "Reporter.create_full";
  let nw = words_for len in
  let level0 = Array.make nw 0 in
  for i = 0 to nw - 1 do
    level0.(i) <- Popcount.low_mask w
  done;
  let rem = len mod w in
  if rem <> 0 || len = 0 then level0.(nw - 1) <- Popcount.low_mask (if len = 0 then 0 else rem);
  { len; levels = build_levels level0; ones = len; counts = counts_of_level0 level0 }

let of_bitvec bv =
  let len = Bitvec.length bv in
  let nw = words_for len in
  let level0 = Array.init nw (fun j -> if j < Bitvec.num_words bv then Bitvec.word bv j else 0) in
  (* Stray bits above [len] in the last raw word would corrupt the summary
     pyramid, the Fenwick word counts and [ones]; mask them off. *)
  let rem = len mod w in
  if rem <> 0 || len = 0 then
    level0.(nw - 1) <- level0.(nw - 1) land Popcount.low_mask (if len = 0 then 0 else rem);
  let ones = Array.fold_left (fun a x -> a + Popcount.count x) 0 level0 in
  { len; levels = build_levels level0; ones; counts = counts_of_level0 level0 }

let length t = t.len
let ones t = t.ones
let word t j = t.levels.(0).(j)

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Reporter.get";
  (t.levels.(0).(i / w) lsr (i mod w)) land 1 = 1

let zero t i =
  if i < 0 || i >= t.len then invalid_arg "Reporter.zero";
  let arr0 = t.levels.(0) in
  let j = i / w in
  let before = arr0.(j) in
  let after = before land lnot (1 lsl (i mod w)) in
  if after <> before then begin
    t.ones <- t.ones - 1;
    Fenwick.add t.counts j (-1);
    arr0.(j) <- after;
    (* propagate emptiness upwards *)
    let rec up level idx =
      if level < Array.length t.levels && t.levels.(level - 1).(idx) = 0 then begin
        let arr = t.levels.(level) in
        arr.(idx / w) <- arr.(idx / w) land lnot (1 lsl (idx mod w));
        up (level + 1) (idx / w)
      end
    in
    if after = 0 then up 1 j
  end

(* Smallest set position >= pos, or -1: climb the summaries while the
   rest of a word is empty, then descend through lowest set bits.
   O(log_62 n) word probes, in loops that allocate nothing. *)
let next_one t pos =
  let levels = t.levels in
  let l = ref 0 and p = ref (if pos < 0 then 0 else pos) and found = ref (-1) in
  while !found < 0 && !l < Array.length levels do
    let arr = Array.unsafe_get levels !l in
    let word = !p / w in
    if word >= Array.length arr then l := Array.length levels
    else begin
      let bits = Array.unsafe_get arr word lsr (!p mod w) in
      if bits <> 0 then found := !p + Popcount.select bits 0
      else begin
        incr l;
        p := word + 1
      end
    end
  done;
  while !found >= 0 && !l > 0 do
    decr l;
    found := (!found * w) + Popcount.select (Array.unsafe_get (Array.unsafe_get levels !l) !found) 0
  done;
  if !found < t.len then !found else -1

(* Report every set position in [s, e) in increasing order: O(k) summary
   probes overall. *)
let report t s e f =
  let e = min e t.len in
  let p = ref (next_one t s) in
  while !p >= 0 && !p < e do
    f !p;
    p := next_one t (!p + 1)
  done

(* Number of live bits in [s, e): Fenwick over whole words plus popcounts
   at the two partial edges.  O(log n). *)
let count_range t s e =
  let s = max 0 s and e = min e t.len in
  if s >= e then 0
  else begin
    let arr0 = t.levels.(0) in
    let ws = s / w and we = (e - 1) / w in
    if ws = we then
      Popcount.count (arr0.(ws) lsr (s mod w) land Popcount.low_mask (e - s))
    else begin
      let left = Popcount.count (arr0.(ws) lsr (s mod w)) in
      let right = Popcount.count (arr0.(we) land Popcount.low_mask (e - (we * w))) in
      left + Fenwick.range t.counts (ws + 1) we + right
    end
  end

(* Deep copy: fresh pyramid and Fenwick, O(len / w) words.  This is the
   per-delete snapshot cost of a semi-static structure's read plane. *)
let copy t =
  {
    len = t.len;
    levels = Array.map Array.copy t.levels;
    ones = t.ones;
    counts = Fenwick.copy t.counts;
  }

let to_list t =
  let acc = ref [] in
  report t 0 t.len (fun i -> acc := i :: !acc);
  List.rev !acc

let space_bits t =
  Array.fold_left (fun acc arr -> acc + (Array.length arr * w)) (2 * w) t.levels
  + Fenwick.space_bits t.counts
