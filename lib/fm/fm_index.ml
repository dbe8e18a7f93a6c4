(* FM-index over a document collection: the static compressed index "Is"
   plugged into the paper's Transformations.

   Construction: concatenate documents with a separator, build the suffix
   array with SA-IS, take the BWT and store it in a Huffman-shaped wavelet
   tree (~ nH0 of the BWT ~ nHk of the text, by the usual BWT argument).
   Suffix-array sampling at rate [s] gives tlocate = O(s log sigma) per
   occurrence, textract = O((l + s) log sigma) and tSA = O(s log sigma) --
   the interface contract the Transformations rely on (their [tick]-able
   construction makes the index (u(n), w(n))-constructible in the paper's
   sense).

   Symbol mapping: sentinel = 0 (SA-IS internal), separator = 1, character
   c = Char.code c + 2.  Patterns use only symbols >= 2, so matches never
   cross document boundaries. *)

open Dsdg_bits
open Dsdg_sa
open Dsdg_wavelet

let sep = Doc_map.sep
let sym_of_char = Doc_map.sym_of_char
let char_of_sym = Doc_map.char_of_sym
let sigma = 258

type t = {
  docs : Doc_map.t;
  m : int; (* number of BWT rows = total_len + 1 (sentinel) *)
  bwt : Huffman_wavelet.t;
  c_before : Int_vec.t; (* for a present symbol c: #symbols < c in the BWT,
                           at Huffman_wavelet.slot c - 1 *)
  sample : int; (* sampling rate s *)
  marked : Rank_select.t; (* rows whose suffix position is ≡ 0 (mod s) *)
  sample_vals : Int_vec.t; (* position / s for marked rows, in row order *)
  isa : Int_vec.t; (* isa.(i) = row of the suffix starting at i*s *)
}

let no_tick () = ()

let build ?(tick = no_tick) ~sample (doc_strs : string array) : t =
  if sample < 1 then invalid_arg "Fm_index.build: sample < 1";
  let docs = Doc_map.of_lengths (Array.map String.length doc_strs) in
  let n = Doc_map.total_len docs in
  let m = n + 1 in
  (* concatenation plus final sentinel *)
  let conc = Array.make m 0 in
  Array.iteri
    (fun d str ->
      let st = Doc_map.doc_start docs d in
      String.iteri (fun i ch -> conc.(st + i) <- sym_of_char ch) str;
      conc.(st + String.length str) <- sep;
      tick ())
    doc_strs;
  let sa = Sais.raw ~tick conc sigma in
  let bwt_arr = Bwt.of_sa conc sa in
  let bwt = Huffman_wavelet.build ~tick ~sigma bwt_arr in
  let c_before =
    let before = Bwt.counts_before bwt_arr sigma in
    let t = Int_vec.create ~width:(Int_vec.width_for m) (Huffman_wavelet.present bwt) in
    Array.iteri
      (fun c b ->
        let k = Huffman_wavelet.slot bwt c in
        if k > 0 then Int_vec.set t (k - 1) b)
      before;
    t
  in
  (* SA sampling, in one pass over the suffix array: a row whose suffix
     starts at a multiple of s before the sentinel is marked, and its
     position / s kept in row order (there are ceil(n / s) of them);
     isa.(i) is the row of the suffix at i*s, for i*s <= n (the sentinel
     suffix at n is row 0). *)
  let mark_bv = Bitvec.create m in
  let sample_width = max 1 (Int_vec.width_for (max 1 (n / sample))) in
  let sample_vals = Int_vec.create ~width:sample_width ((n + sample - 1) / sample) in
  let isa = Int_vec.create ~width:(max 1 (Int_vec.width_for m)) ((n / sample) + 1) in
  let k = ref 0 in
  Array.iteri
    (fun row pos ->
      tick ();
      if pos mod sample = 0 then begin
        if pos < n then begin
          Bitvec.set mark_bv row;
          Int_vec.set sample_vals !k (pos / sample);
          incr k
        end;
        Int_vec.set isa (pos / sample) row
      end)
    sa;
  {
    docs;
    m;
    bwt;
    c_before;
    sample;
    marked = Rank_select.build mark_bv;
    sample_vals;
    isa;
  }

let doc_count t = Doc_map.doc_count t.docs
let total_len t = Doc_map.total_len t.docs
let doc_len t d = Doc_map.doc_len t.docs d
let row_count t = t.m
let sample_rate t = t.sample

(* #symbols < c in the BWT, for a symbol c that occurs in it (so its
   slot is at least 1). *)
let[@inline] before t c = Int_vec.unsafe_get t.c_before (Huffman_wavelet.slot t.bwt c - 1)

(* LF-mapping: row of suffix p -> row of suffix p-1 (mod), in one
   wavelet descent. *)
let lf t row =
  let k, r = Huffman_wavelet.access_slot_rank t.bwt row in
  Int_vec.unsafe_get t.c_before (k - 1) + r

(* Backward search.  Returns the half-open SA row range of suffixes
   starting with [p], or None; a symbol absent from the BWT ends it at
   once. *)
let range t (p : string) : (int * int) option =
  let len = String.length p in
  if len = 0 then invalid_arg "Fm_index.range: empty pattern";
  let sp = ref 0 and ep = ref t.m in
  let i = ref (len - 1) in
  let ok = ref true in
  while !ok && !i >= 0 do
    let c = sym_of_char p.[!i] in
    let k = Huffman_wavelet.slot t.bwt c in
    if k = 0 then ok := false
    else begin
      let b = Int_vec.unsafe_get t.c_before (k - 1) in
      sp := b + Huffman_wavelet.rank t.bwt c !sp;
      ep := b + Huffman_wavelet.rank t.bwt c !ep;
      if !sp >= !ep then ok := false
    end;
    decr i
  done;
  if !ok then Some (!sp, !ep) else None

let count t p = match range t p with None -> 0 | Some (sp, ep) -> ep - sp

(* Text position of the suffix in SA row [row]: walk LF until a sampled
   row, O(s) steps. *)
let position_of_row t row =
  let row = ref row and steps = ref 0 in
  while not (Rank_select.get t.marked !row) do
    row := lf t !row;
    incr steps
  done;
  let idx = Rank_select.rank1 t.marked !row in
  (Int_vec.get t.sample_vals idx * t.sample) + !steps

(* (doc, offset) of the suffix in SA row [row]. *)
let locate t row =
  if row < 0 || row >= t.m then invalid_arg "Fm_index.locate";
  Doc_map.locate t.docs (position_of_row t row)

let search t p ~f =
  match range t p with
  | None -> ()
  | Some (sp, ep) ->
    for row = sp to ep - 1 do
      let doc, off = locate t row in
      f ~doc ~off
    done

(* Row of the suffix starting at global text position [pos] (<= n). *)
let row_of_position t pos =
  let n = total_len t in
  if pos < 0 || pos > n then invalid_arg "Fm_index.row_of_position";
  let anchor = min n (((pos + t.sample - 1) / t.sample) * t.sample) in
  let row = ref (if anchor = n then 0 else Int_vec.get t.isa (anchor / t.sample)) in
  (* row of suffix p-1 = lf (row of suffix p) *)
  for _ = 1 to anchor - pos do
    row := lf t !row
  done;
  !row

(* Extract a document substring conc[g, g+len) by walking LF backwards
   from the nearest ISA anchor past its end: O(len + s) wavelet
   descents, one per step. *)
let extract t ~doc ~off ~len =
  let dl = doc_len t doc in
  if off < 0 || len < 0 || off + len > dl then invalid_arg "Fm_index.extract: out of document";
  let g = Doc_map.doc_start t.docs doc + off in
  let e = g + len in
  let anchor = min (total_len t) (((e + t.sample - 1) / t.sample) * t.sample) in
  let row = ref (row_of_position t anchor) in
  let out = Bytes.create len in
  (* bwt[row of suffix p] = conc[p-1]; walk p = anchor downto g+1 *)
  for p = anchor downto g + 1 do
    let c, r = Huffman_wavelet.access_rank t.bwt !row in
    if p - 1 < e then Bytes.unsafe_set out (p - 1 - g) (char_of_sym c);
    row := before t c + r
  done;
  Bytes.unsafe_to_string out

(* Every document, by one bulk inversion: decode the BWT into a plain
   array, then invert it with one counting pass and one LF walk.
   O(n (H0 + 1)) sequential bit work plus O(n), no wavelet rank. *)
let docs ?tick t = Doc_map.split ?tick t.docs (Bwt.invert ?tick (Huffman_wavelet.to_array ?tick t.bwt))

(* Row of the suffix starting at (doc, off): tSA = O(s). *)
let suffix_row t ~doc ~off = row_of_position t (Doc_map.doc_start t.docs doc + off)

(* Iterate the SA rows of every suffix belonging to document [doc]
   (including its separator position), in order of decreasing position:
   one O(s) anchor walk plus O(1) per symbol.  Used for lazy deletion. *)
let iter_doc_rows t doc ~f =
  let st = Doc_map.doc_start t.docs doc in
  let l = doc_len t doc in
  (* positions st .. st+l (st+l is the separator) *)
  let row = ref (row_of_position t (st + l)) in
  f !row;
  for _p = st + l - 1 downto st do
    row := lf t !row;
    f !row
  done

let space_bits t =
  Huffman_wavelet.space_bits t.bwt + Int_vec.space_bits t.c_before
  + Rank_select.space_bits t.marked + Int_vec.space_bits t.sample_vals
  + Int_vec.space_bits t.isa + Doc_map.space_bits t.docs + (4 * 63)
