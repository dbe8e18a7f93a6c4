(* Packed vector of fixed-width non-negative integers (width <= 62),
   stored across 63-bit words. *)

let w = Popcount.word_bits

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

let space_bits t = (Array.length t.data * w) + (5 * 63)
