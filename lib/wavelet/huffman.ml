(* Canonical Huffman code construction from symbol frequencies.

   Codes are returned MSB-first as (bits, length) pairs; the code tree is
   also exposed so that Huffman_wavelet can shape itself on it. *)

type tree =
  | Sym of int
  | Branch of tree * tree

(* Build the Huffman tree for symbols with freqs.(c) > 0.  A single-symbol
   alphabet yields a one-bit code (Branch (Sym c, Sym c) would be wasteful;
   we special-case it with a degenerate branch so every code has length
   >= 1 and the wavelet shape stays a proper tree).

   Two queues, no heap: the leaves sorted by (weight, symbol), then the
   internal nodes in creation order, whose weights never decrease.  Each
   step merges the two smallest heads by (weight, tiebreak), where a
   leaf's tiebreak (its symbol rank) is below every internal node's (its
   creation rank after the leaves): on equal weights the leaf goes first.
   That is the order a min-heap keyed on (weight, tiebreak) pops, so the
   tree -- and every code -- is the heap construction's. *)
let build_tree (freqs : int array) : tree option =
  let leaves = ref [] in
  for c = Array.length freqs - 1 downto 0 do
    if freqs.(c) > 0 then leaves := c :: !leaves
  done;
  let leaves = Array.of_list !leaves in
  let m = Array.length leaves in
  if m = 0 then None
  else if m = 1 then Some (Branch (Sym leaves.(0), Sym leaves.(0)))
  else begin
    Array.stable_sort (fun a b -> Int.compare freqs.(a) freqs.(b)) leaves;
    let nodes = Array.make (m - 1) (Sym 0) and weights = Array.make (m - 1) 0 in
    let li = ref 0 and ni = ref 0 in
    (* pop the smaller head; internal nodes [!ni, made) are queued *)
    let pop made =
      if !li < m && (!ni >= made || freqs.(leaves.(!li)) <= weights.(!ni)) then begin
        let c = leaves.(!li) in
        incr li;
        (freqs.(c), Sym c)
      end
      else begin
        let k = !ni in
        incr ni;
        (weights.(k), nodes.(k))
      end
    in
    for k = 0 to m - 2 do
      let w1, t1 = pop k in
      let w2, t2 = pop k in
      nodes.(k) <- Branch (t1, t2);
      weights.(k) <- w1 + w2
    done;
    Some nodes.(m - 2)
  end

type code = { bits : int; len : int }

(* codes.(c) is meaningful only for symbols with non-zero frequency. *)
let codes_of_tree ~sigma tree =
  let codes = Array.make sigma { bits = 0; len = 0 } in
  let rec go t bits len =
    match t with
    | Sym c -> if codes.(c).len = 0 then codes.(c) <- { bits; len }
    | Branch (l, r) ->
      go l (bits lsl 1) (len + 1);
      go r ((bits lsl 1) lor 1) (len + 1)
  in
  go tree 0 0;
  codes

let codes ~sigma (freqs : int array) =
  match build_tree freqs with
  | None -> Array.make sigma { bits = 0; len = 0 }
  | Some t -> codes_of_tree ~sigma t

(* Average code length in bits per symbol (equals within 1 bit of H0). *)
let average_length (freqs : int array) (codes : code array) =
  let total = Array.fold_left ( + ) 0 freqs in
  if total = 0 then 0.0
  else begin
    let sum = ref 0 in
    Array.iteri (fun c f -> sum := !sum + (f * codes.(c).len)) freqs;
    float_of_int !sum /. float_of_int total
  end
