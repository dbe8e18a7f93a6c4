(* Huffman-shaped wavelet tree: a wavelet tree whose shape follows the
   Huffman code of the sequence, so total bit-vector length is
   n (H0 + 1) + o(..) bits.  This is the zero-order compressed sequence
   representation backing the string S of binary relations (Section 5) and
   the BWT of the FM-index. *)

open Dsdg_bits

(* A node keeps its bit vector's words, rank directory and one count in
   its own record: one heap block per node plus the two arrays.  Its
   length is not stored -- the root's is [len], and a node's children
   have [len - ones] and [ones] symbols. *)
type node =
  | Leaf of int
  | Node of {
      words : int array; (* the node's bit vector (Bitvec words) *)
      super : int array; (* its Rank_select directory *)
      ones : int;
      left : node;
      right : node;
    }

(* The code table is sized to the symbols that occur, not to [sigma]:
   [slot] maps a symbol to 1 + its index in [codes] (0 = absent), in
   the fewest bits that can name every present symbol, and [codes]
   holds one packed [(bits lsl 6) lor len] word per present symbol.
   A Huffman code of length L needs a sequence of at least Fib(L + 1)
   symbols, so codes stay within the 56 bits the packing leaves them
   for any sequence of fewer than ~10^11 symbols. *)
type t = {
  root : node option; (* None iff the sequence is empty *)
  len : int;
  sigma : int;
  slot : Int_vec.t;
  codes : int array;
}

let length t = t.len
let sigma t = t.sigma

(* Build the node over [seq.(lo) .. seq.(lo + n - 1)], whose symbols all
   share the code prefix of length [depth].  One pass packs the node's
   bit words and partitions the range stably in place: a 0-bit symbol
   moves down within [seq], a 1-bit symbol goes to [scratch], and the
   1-bit run is copied back after the 0-bit run, so the children are
   the two halves of the same range.  Each symbol is stored to both
   places and only its side's count advances: the bits of a BWT are
   close to random, and a mispredicted branch per symbol costs more
   than the spare store (a stray store lands where a later symbol or
   the copy-back overwrites it).  [scratch] is shared by every node (it
   is free again before either child is built). *)
let rec build_node seq scratch lo n (codes : Huffman.code array) depth tick =
  let c0 = seq.(lo) in
  if codes.(c0).len = depth then Leaf c0
  else begin
    let w = Popcount.word_bits in
    let words = Array.make ((n + w - 1) / w) 0 in
    let nleft = ref 0 and nright = ref 0 in
    for j = 0 to Array.length words - 1 do
      let base = j * w in
      let word = ref 0 in
      for k = 0 to min w (n - base) - 1 do
        tick ();
        let c = Array.unsafe_get seq (lo + base + k) in
        let code = Array.unsafe_get codes c in
        let b = (code.Huffman.bits lsr (code.Huffman.len - 1 - depth)) land 1 in
        word := !word lor (b lsl k);
        Array.unsafe_set scratch !nright c;
        Array.unsafe_set seq (lo + !nleft) c;
        nright := !nright + b;
        nleft := !nleft + 1 - b
      done;
      Array.unsafe_set words j !word
    done;
    Array.blit scratch 0 seq (lo + !nleft) !nright;
    (* A Huffman tree has no unary nodes, so both sides are non-empty --
       except for the degenerate single-symbol alphabet where the code is
       Branch(Sym c, Sym c) and one side may be empty.  Guard for that. *)
    let left = if !nleft = 0 then Leaf c0 else build_node seq scratch lo !nleft codes (depth + 1) tick in
    let right =
      if !nright = 0 then Leaf c0
      else build_node seq scratch (lo + !nleft) !nright codes (depth + 1) tick
    in
    Node { words; super = Rank_select.directory words; ones = !nright; left; right }
  end

let build ?(tick = fun () -> ()) ~sigma (seq : int array) =
  Array.iter
    (fun c -> if c < 0 || c >= sigma then invalid_arg "Huffman_wavelet.build: symbol out of range")
    seq;
  let freqs = Array.make sigma 0 in
  Array.iter (fun c -> freqs.(c) <- freqs.(c) + 1) seq;
  let codes = Huffman.codes ~sigma freqs in
  let n = Array.length seq in
  let root =
    if n = 0 then None else Some (build_node (Array.copy seq) (Array.make n 0) 0 n codes 0 tick)
  in
  let present = Array.fold_left (fun a f -> if f > 0 then a + 1 else a) 0 freqs in
  let slot = Int_vec.create ~width:(Int_vec.width_for present) sigma in
  let packed = Array.make present 0 in
  let k = ref 0 in
  Array.iteri
    (fun c f ->
      if f > 0 then begin
        let code = codes.(c) in
        packed.(!k) <- (code.Huffman.bits lsl 6) lor code.Huffman.len;
        incr k;
        Int_vec.set slot c !k
      end)
    freqs;
  { root; len = Array.length seq; sigma; slot; codes = packed }

(* Packed code of [c]; 0 (length 0) for symbols that do not occur. *)
let code t c =
  if c < 0 || c >= t.sigma then 0
  else
    let k = Int_vec.get t.slot c in
    if k = 0 then 0 else Array.unsafe_get t.codes (k - 1)

let[@inline] code_bit code depth = (code lsr (6 + (code land 63) - 1 - depth)) land 1

(* The access descent visits, at every level, exactly the positions
   [rank c i] visits for the symbol it finds, so the position it reaches
   in the leaf is that rank: one traversal answers both. *)
let access_rank t i =
  if i < 0 || i >= t.len then invalid_arg "Huffman_wavelet.access";
  let rec go node i =
    match node with
    | Leaf c -> (c, i)
    | Node { words; super; left; right; _ } ->
      let rb = Rank_select.rank_bit_in words super i in
      if rb land 1 = 1 then go right (rb lsr 1) else go left (i - (rb lsr 1))
  in
  match t.root with
  | None -> invalid_arg "Huffman_wavelet.access: empty"
  | Some root -> go root i

let access t i = fst (access_rank t i)

let rank t c i =
  if i < 0 || i > t.len then invalid_arg "Huffman_wavelet.rank";
  let code = code t c in
  if code = 0 then 0
  else begin
    let rec go node depth i =
      if i = 0 then 0
      else
        match node with
        | Leaf _ -> i
        | Node { words; super; left; right; _ } ->
          let r1 = Rank_select.rank1_in words super i in
          if code_bit code depth = 1 then go right (depth + 1) r1 else go left (depth + 1) (i - r1)
    in
    match t.root with None -> 0 | Some root -> go root 0 i
  end

let select t c k =
  if k < 0 then invalid_arg "Huffman_wavelet.select";
  let code = code t c in
  if code = 0 then raise Not_found;
  let rec go node depth len k =
    match node with
    | Leaf _ -> k
    | Node { words; super; ones; left; right } ->
      if code_bit code depth = 1 then begin
        let pos = go right (depth + 1) ones k in
        if pos >= ones then raise Not_found;
        Rank_select.select1_in words super pos
      end
      else begin
        let pos = go left (depth + 1) (len - ones) k in
        if pos >= len - ones then raise Not_found;
        Rank_select.select0_in words super ~len pos
      end
  in
  match t.root with
  | None -> raise Not_found
  | Some root ->
    let pos = go root 0 t.len k in
    if pos >= t.len then raise Not_found else pos

let count t c = rank t c t.len
let rank_range t c l r = rank t c r - rank t c l

(* Counted as the heap holds it: a leaf is a 2-word block, a node a
   6-word block plus its word array and directory. *)
let space_bits t =
  let rec go = function
    | Leaf _ -> 2 * 63
    | Node { words; super; left; right; _ } ->
      (Array.length words * Popcount.word_bits) + Rank_select.directory_bits super + (7 * 63)
      + go left + go right
  in
  (match t.root with None -> 0 | Some r -> go r)
  + Int_vec.space_bits t.slot
  + ((Array.length t.codes + 1) * 63)
  + (8 * 63)

(* Bulk decode, bottom-up: a node's sequence interleaves its children's
   sequences in the order its bit vector gives, so one sequential pass
   over each bit vector rebuilds the whole sequence with no rank.
   [tick] is charged once per word of every node's bit vector. *)
let to_array ?(tick = fun () -> ()) t =
  let w = Popcount.word_bits in
  let rec decode node n =
    match node with
    | Leaf c -> Array.make n c
    | Node { words; ones; left; right; _ } ->
      let l = decode left (n - ones) and r = decode right ones in
      let out = Array.make n 0 in
      let li = ref 0 and ri = ref 0 in
      for j = 0 to Array.length words - 1 do
        tick ();
        let word = Array.unsafe_get words j and base = j * w in
        for k = 0 to min w (n - base) - 1 do
          if (word lsr k) land 1 = 1 then begin
            Array.unsafe_set out (base + k) (Array.unsafe_get r !ri);
            incr ri
          end
          else begin
            Array.unsafe_set out (base + k) (Array.unsafe_get l !li);
            incr li
          end
        done
      done;
      out
  in
  match t.root with None -> [||] | Some root -> decode root t.len

let nodes t =
  let rec go acc = function
    | Leaf _ -> acc
    | Node { words; super; ones; left; right } -> go (go ((words, super, ones) :: acc) left) right
  in
  match t.root with None -> [] | Some r -> List.rev (go [] r)
