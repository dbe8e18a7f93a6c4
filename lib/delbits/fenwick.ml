(* Fenwick (binary indexed) tree over [n] integer cells: point update,
   prefix sum in O(log n).  Substitute for the Navarro-Sadakane dynamic
   counting structure: Theorem 1 uses it to count surviving suffixes in a
   suffix-array range of a semi-static index.

   Cells must stay non-negative, so every node -- a sum of cells -- lies
   in [0, total].  The nodes live in one packed [Int_vec] of [width]
   bits each: a caller whose total is bounded (the Reporter's live-bit
   counts never exceed the initial total) sizes [width] to that bound;
   the default, 62, is a full word. *)

open Dsdg_bits

(* Node i (1-based) is cell i - 1 of the vector. *)
type t = Int_vec.t

let full_width = 62

let create ?(width = full_width) n =
  if n < 0 then invalid_arg "Fenwick.create";
  if width < 1 || width > full_width then invalid_arg "Fenwick.create: width";
  Int_vec.create ~width n

let length = Int_vec.length

(* Node [i] (1-based, every caller has checked 1 <= i <= n). *)
let[@inline] node t i = Int_vec.unsafe_get t (i - 1)

let[@inline] set_node t i v = Int_vec.unsafe_set t (i - 1) v

let add t i delta =
  let n = length t in
  if i < 0 || i >= n then invalid_arg "Fenwick.add";
  let i = ref (i + 1) in
  while !i <= n do
    set_node t !i (node t !i + delta);
    i := !i + (!i land - !i)
  done

(* Sum of cells [0, i). *)
let prefix t i =
  if i < 0 || i > length t then invalid_arg "Fenwick.prefix";
  let acc = ref 0 and i = ref i in
  while !i > 0 do
    acc := !acc + node t !i;
    i := !i - (!i land - !i)
  done;
  !acc

(* Sum of cells [l, r). *)
let range t l r = prefix t r - prefix t l

let total t = prefix t (length t)

(* Fenwick tree pre-filled with ones (used for "count live suffixes").
   Closed form: node i of an all-ones tree holds lowbit(i) -- O(n). *)
let create_ones n =
  let t = create n in
  for i = 1 to n do
    set_node t i (i land -i)
  done;
  t

(* Linear-time construction from initial cell values. *)
let of_array ?width (a : int array) =
  let n = Array.length a in
  let sums = Array.copy a in
  for i = 1 to n do
    let j = i + (i land -i) in
    if j <= n then sums.(j - 1) <- sums.(j - 1) + sums.(i - 1)
  done;
  let t = create ?width n in
  Array.iteri (fun k v -> set_node t (k + 1) v) sums;
  t

(* Smallest [i] with [prefix t (i + 1) > k], by binary lifting over the
   implicit tree: O(log n), no prefix-sum recomputation per probe.
   Requires all cells non-negative and [0 <= k < total t]. *)
let search t k =
  if k < 0 then invalid_arg "Fenwick.search";
  let n = length t in
  let log2 =
    let b = ref 1 and l = ref 0 in
    while !b * 2 <= n do
      b := !b * 2;
      incr l
    done;
    !l
  in
  let pos = ref 0 and rem = ref k in
  for j = log2 downto 0 do
    let next = !pos + (1 lsl j) in
    if next <= n && node t next <= !rem then begin
      rem := !rem - node t next;
      pos := next
    end
  done;
  if !pos >= n then invalid_arg "Fenwick.search";
  !pos

(* Deep copy, O(n).  Snapshot publication (read-plane views) copies the
   Fenwick summaries of structures whose deletion state keeps mutating. *)
let copy = Int_vec.copy

let space_bits = Int_vec.space_bits
