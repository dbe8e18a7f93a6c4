(* Fixed-length mutable bit vector over 63-bit words. *)

(* [Popcount.word_bits] as a literal, so that dividing by it is a
   multiplication (see Int_vec). *)
let w = 62

let () = assert (w = Popcount.word_bits)

type t = {
  len : int;
  data : int array;
}

let words_for n = if n = 0 then 1 else (n + w - 1) / w

let create n =
  if n < 0 then invalid_arg "Bitvec.create";
  { len = n; data = Array.make (words_for n) 0 }

let length t = t.len

let[@inline] check t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec: index out of bounds"

let[@inline] get t i =
  check t i;
  (Array.unsafe_get t.data (i / w) lsr (i mod w)) land 1 = 1

let[@inline] unsafe_get t i =
  (Array.unsafe_get t.data (i / w) lsr (i mod w)) land 1 = 1

let set t i =
  check t i;
  let j = i / w in
  t.data.(j) <- t.data.(j) lor (1 lsl (i mod w))

let clear t i =
  check t i;
  let j = i / w in
  t.data.(j) <- t.data.(j) land lnot (1 lsl (i mod w))

let set_to t i b = if b then set t i else clear t i

let init n f =
  let t = create n in
  for i = 0 to n - 1 do
    if f i then set t i
  done;
  t

let fill_ones t =
  let nw = Array.length t.data in
  for j = 0 to nw - 1 do
    t.data.(j) <- Popcount.low_mask w
  done;
  (* clear bits beyond [len] in the last word *)
  let rem = t.len mod w in
  if rem <> 0 || t.len = 0 then t.data.(nw - 1) <- Popcount.low_mask (if t.len = 0 then 0 else rem)

let create_full n =
  let t = create n in
  fill_ones t;
  t

let count t = Array.fold_left (fun acc x -> acc + Popcount.count x) 0 t.data

(* Number of words; internal, used by rank/select directories. *)
let num_words t = Array.length t.data

let word t j = t.data.(j)
let words t = t.data

(* Valid-bit mask of word [j] (the last word may be partial). *)
let word_mask t j =
  let full = Popcount.low_mask w in
  if j < num_words t - 1 then full
  else
    let rem = t.len - (j * w) in
    Popcount.low_mask rem

let copy t = { len = t.len; data = Array.copy t.data }

let equal a b = a.len = b.len && a.data = b.data

(* Iterate positions of set bits in increasing order. *)
let iter_ones f t =
  for j = 0 to num_words t - 1 do
    let x = ref t.data.(j) in
    while !x <> 0 do
      let b = !x land - !x in
      let pos = (j * w) + Popcount.select b 0 in
      f pos;
      x := !x land lnot b
    done
  done

let space_bits t = (num_words t * w) + (2 * 63)

let of_bools l =
  let n = List.length l in
  let t = create n in
  List.iteri (fun i b -> if b then set t i) l;
  t

let to_bools t = List.init t.len (fun i -> get t i)

let pp ppf t =
  for i = 0 to t.len - 1 do
    Format.pp_print_char ppf (if get t i then '1' else '0')
  done
