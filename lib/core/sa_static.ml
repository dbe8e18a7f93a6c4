(* Plain suffix-array static index: the O(n log sigma)-plus-index-class
   baseline (stand-in for Grossi-Vitter [22] in Table 3).  Range-finding
   is binary search (O(|P| log n)); locating is O(1) (explicit suffix
   array); extraction is O(l) (explicit text).  Uses Theta(n log n) bits.

   The substitution is documented in DESIGN.md: what matters for the
   paper's claims is the *class* (fast queries, uncompressed space) and
   the Static_index.S contract, both of which this satisfies. *)

open Dsdg_fm
open Dsdg_sa

type t = {
  docs : Doc_map.t;
  conc : int array; (* mapped symbols: sep = 1, char c = code c + 2 *)
  sa : int array;
  isa : int array;
}

let name = "sa"

let sym_of_char = Doc_map.sym_of_char

let build ?(tick = fun () -> ()) ~sample (doc_strs : string array) : t =
  ignore sample;
  let docs = Doc_map.of_lengths (Array.map String.length doc_strs) in
  let n = Doc_map.total_len docs in
  let conc = Array.make (max n 1) 0 in
  Array.iteri
    (fun d str ->
      let st = Doc_map.doc_start docs d in
      String.iteri (fun i ch -> conc.(st + i) <- sym_of_char ch) str;
      conc.(st + String.length str) <- Doc_map.sep;
      tick ())
    doc_strs;
  let conc = if n = 0 then [||] else Array.sub conc 0 n in
  let sa = Sais.suffix_array ~tick conc in
  let isa = Array.make n 0 in
  Array.iteri
    (fun row pos ->
      tick ();
      isa.(pos) <- row)
    sa;
  { docs; conc; sa; isa }

let doc_count t = Doc_map.doc_count t.docs
let doc_len t d = Doc_map.doc_len t.docs d
let total_len t = Doc_map.total_len t.docs
let row_count t = Array.length t.sa

(* Compare pattern p (mapped) against the suffix at position [pos]:
   -1 / 0 / +1 where 0 means the suffix starts with p. *)
let compare_prefix t (p : int array) pos =
  let n = Array.length t.conc and pl = Array.length p in
  let rec go k =
    if k >= pl then 0
    else if pos + k >= n then 1 (* suffix exhausted: suffix < p *)
    else if t.conc.(pos + k) < p.(k) then 1
    else if t.conc.(pos + k) > p.(k) then -1
    else go (k + 1)
  in
  (* returns -1 if suffix > p-prefix, +1 if suffix < p, 0 if starts with *)
  go 0

let range t (pat : string) : (int * int) option =
  if String.length pat = 0 then invalid_arg "Sa_static.range: empty pattern";
  let p = Array.init (String.length pat) (fun i -> sym_of_char pat.[i]) in
  let n = Array.length t.sa in
  (* lower bound: first row whose suffix is >= p (i.e. not < p) *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_prefix t p t.sa.(mid) = 1 then lo := mid + 1 else hi := mid
  done;
  let first = !lo in
  (* upper bound: first row whose suffix is > every p-prefixed string *)
  let lo = ref first and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_prefix t p t.sa.(mid) >= 0 then lo := mid + 1 else hi := mid
  done;
  if first >= !lo then None else Some (first, !lo)

let locate t row = Doc_map.locate t.docs t.sa.(row)

let extract t ~doc ~off ~len =
  let dl = doc_len t doc in
  if off < 0 || len < 0 || off + len > dl then invalid_arg "Sa_static.extract: out of document";
  let st = Doc_map.doc_start t.docs doc in
  String.init len (fun i -> Doc_map.char_of_sym t.conc.(st + off + i))

let docs ?tick t = Doc_map.split ?tick t.docs t.conc

let iter_doc_rows t doc ~f =
  let st = Doc_map.doc_start t.docs doc in
  let l = doc_len t doc in
  for pos = st + l downto st do
    f t.isa.(pos)
  done

let space_bits t =
  ((Array.length t.conc + Array.length t.sa + Array.length t.isa) * 63)
  + Doc_map.space_bits t.docs
