(* Dynamic wavelet tree over alphabet [0, sigma): access / rank / select /
   insert / delete in O(log n log sigma).  Combined with a dynamic
   bitvector this is the dynamic-rank/select machinery of the baseline
   indexes the paper improves on.  The per-node bitvectors are SPSI
   B-trees. *)

open Dsdg_bits

type node =
  | Leaf of int
  | Node of {
      bv : Spsi.t;
      lo : int;
      hi : int;
      left : node;
      right : node;
    }

type t = {
  root : node;
  sigma : int;
  mutable length : int;
}

let rec make_node lo hi =
  if hi - lo = 1 then Leaf lo
  else begin
    let mid = (lo + hi) / 2 in
    Node
      {
        bv = Spsi.create ();
        lo;
        hi;
        left = make_node lo mid;
        right = make_node mid hi;
      }
  end

let create ~sigma () =
  if sigma < 1 then invalid_arg "Dyn_wavelet.create";
  { root = make_node 0 sigma; sigma; length = 0 }

let length t = t.length
let sigma t = t.sigma

let insert t pos sym =
  if pos < 0 || pos > t.length then invalid_arg "Dyn_wavelet.insert: pos";
  if sym < 0 || sym >= t.sigma then invalid_arg "Dyn_wavelet.insert: sym";
  let rec go node pos =
    match node with
    | Leaf _ -> ()
    | Node { bv; lo; hi; left; right } ->
      let mid = (lo + hi) / 2 in
      let bit = sym >= mid in
      Spsi.insert bv pos bit;
      let child_pos = if bit then Spsi.rank1 bv pos else Spsi.rank0 bv pos in
      go (if bit then right else left) child_pos
  in
  go t.root pos;
  t.length <- t.length + 1

let delete t pos =
  if pos < 0 || pos >= t.length then invalid_arg "Dyn_wavelet.delete";
  let rec go node pos =
    match node with
    | Leaf _ -> ()
    | Node { bv; left; right; _ } ->
      let bit = Spsi.get bv pos in
      let child_pos = if bit then Spsi.rank1 bv pos else Spsi.rank0 bv pos in
      Spsi.delete bv pos;
      go (if bit then right else left) child_pos
  in
  go t.root pos;
  t.length <- t.length - 1

let access t pos =
  if pos < 0 || pos >= t.length then invalid_arg "Dyn_wavelet.access";
  let rec go node pos =
    match node with
    | Leaf c -> c
    | Node { bv; left; right; _ } ->
      if Spsi.get bv pos then go right (Spsi.rank1 bv pos)
      else go left (Spsi.rank0 bv pos)
  in
  go t.root pos

let rank t sym pos =
  if pos < 0 || pos > t.length then invalid_arg "Dyn_wavelet.rank";
  if sym < 0 || sym >= t.sigma then 0
  else begin
    let rec go node pos =
      if pos = 0 then 0
      else
        match node with
        | Leaf _ -> pos
        | Node { bv; lo; hi; left; right } ->
          let mid = (lo + hi) / 2 in
          if sym >= mid then go right (Spsi.rank1 bv pos)
          else go left (Spsi.rank0 bv pos)
    in
    go t.root pos
  end

let select t sym k =
  if k < 0 then invalid_arg "Dyn_wavelet.select";
  if sym < 0 || sym >= t.sigma then raise Not_found;
  let rec go node k =
    match node with
    | Leaf _ -> k
    | Node { bv; lo; hi; left; right } ->
      let mid = (lo + hi) / 2 in
      if sym >= mid then begin
        let pos = go right k in
        if pos >= Spsi.ones bv then raise Not_found;
        Spsi.select1 bv pos
      end
      else begin
        let pos = go left k in
        if pos >= Spsi.zeros bv then raise Not_found;
        Spsi.select0 bv pos
      end
  in
  let pos = go t.root k in
  if pos >= t.length then raise Not_found else pos

let count t sym = rank t sym t.length

let to_array t = Array.init t.length (access t)

let space_bits t =
  let w = Popcount.word_bits in
  let rec go = function
    | Leaf _ -> w
    | Node { bv; left; right; _ } -> Spsi.space_bits bv + go left + go right + (4 * w)
  in
  go t.root
