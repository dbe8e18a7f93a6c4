(* Packed vector of fixed-width non-negative integers (width <= 62),
   stored across 63-bit words. *)

(* [Popcount.word_bits], written out: a literal divisor compiles to a
   multiplication, where a value from another module is an [idiv] per
   index split whenever cross-module constants are not propagated
   (dune's default dev profile compiles with -opaque). *)
let w = 62

let () = assert (w = Popcount.word_bits)

(* [Popcount.low_mask], here so the hot reads inline it. *)
let[@inline] low_mask n = (1 lsl n) - 1

type t = {
  width : int;
  len : int;
  data : int array;
}

let create ~width len =
  if width < 1 || width > 62 then invalid_arg "Int_vec.create: width";
  if len < 0 then invalid_arg "Int_vec.create: len";
  let total_bits = width * len in
  let nw = if total_bits = 0 then 1 else (total_bits + w - 1) / w in
  { width; len; data = Array.make nw 0 }

let length t = t.len
let width t = t.width

(* Smallest width that can hold [v] (at least 1). *)
let width_for v =
  if v < 0 then invalid_arg "Int_vec.width_for";
  let rec go acc v = if v = 0 then max acc 1 else go (acc + 1) (v lsr 1) in
  go 0 v

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Int_vec.get";
  let bitpos = i * t.width in
  let word = bitpos / w and off = bitpos mod w in
  let mask = Popcount.low_mask t.width in
  if off + t.width <= w then (Array.unsafe_get t.data word lsr off) land mask
  else begin
    let lo_bits = w - off in
    let lo = Array.unsafe_get t.data word lsr off in
    let hi = Array.unsafe_get t.data (word + 1) land Popcount.low_mask (t.width - lo_bits) in
    lo lor (hi lsl lo_bits)
  end

(* [get] without the bounds check, for loops whose indices are already
   in range, and without a data-dependent branch: the next word is
   always read (the last word reads itself again) and shifted above the
   cell's first bits, and one mask keeps the cell, whether or not it
   straddles the two words. *)
let[@inline] unsafe_get t i =
  let data = t.data and width = t.width in
  let bitpos = i * width in
  let word = bitpos / w and off = bitpos mod w in
  let next = Int.min (word + 1) (Array.length data - 1) in
  (Array.unsafe_get data word lsr off lor (Array.unsafe_get data next lsl (w - off)))
  land low_mask width

(* For a non-decreasing vector: the number of cells <= v, by binary
   search (cells read here inline, with no call per probe). *)
let count_le t v =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if unsafe_get t mid <= v then lo := mid + 1 else hi := mid
  done;
  !lo

(* [set] without the checks: [i] in range and [v] within the width.
   The cell's first bits go into its word (bits past the word's 62 are
   cut), and a cell that straddles two words writes the rest into the
   next. *)
let[@inline] unsafe_set t i v =
  let data = t.data and width = t.width in
  let bitpos = i * width in
  let word = bitpos / w and off = bitpos mod w in
  Array.unsafe_set data word
    (Array.unsafe_get data word land lnot (low_mask width lsl off) lor (v lsl off) land low_mask w);
  if off + width > w then begin
    let hi_mask = low_mask (width - (w - off)) in
    Array.unsafe_set data (word + 1) (Array.unsafe_get data (word + 1) land lnot hi_mask lor (v lsr (w - off)))
  end

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Int_vec.set";
  let mask = Popcount.low_mask t.width in
  if v < 0 || v land lnot mask <> 0 then invalid_arg "Int_vec.set: value too wide";
  let bitpos = i * t.width in
  let word = bitpos / w and off = bitpos mod w in
  if off + t.width <= w then
    t.data.(word) <- t.data.(word) land lnot (mask lsl off) lor (v lsl off)
  else begin
    let lo_bits = w - off in
    t.data.(word) <- t.data.(word) land Popcount.low_mask off lor (v lsl off) land Popcount.low_mask w;
    let hi_mask = Popcount.low_mask (t.width - lo_bits) in
    t.data.(word + 1) <- t.data.(word + 1) land lnot hi_mask lor (v lsr lo_bits)
  end

let of_array ~width a =
  let t = create ~width (Array.length a) in
  Array.iteri (fun i v -> set t i v) a;
  t

let of_array_auto a =
  let m = Array.fold_left max 0 a in
  of_array ~width:(width_for m) a

let to_array t = Array.init t.len (get t)

let copy t = { t with data = Array.copy t.data }

let space_bits t = (Array.length t.data * w) + (5 * 63)
