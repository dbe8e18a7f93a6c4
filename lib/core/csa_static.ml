(* Compressed suffix array in the style of Sadakane [39]: the psi
   function, increasing within each first-symbol block, is stored in
   per-block Elias-Fano (~ n(H0 + O(1)) bits); range-finding is binary
   search with psi-driven suffix extraction (trange = O(|P| log n), the
   Table 1 row for [39]); locate/extract/suffix-rank use text-position
   sampling at rate [sample] exactly like the FM backend, but walking psi
   forward instead of LF backward.

   A third, genuinely different Static_index.S backend: plugging it into
   the Transformations demonstrates the framework's "works for any
   suffix-array-shaped index" claim. *)

open Dsdg_bits
open Dsdg_fm
open Dsdg_sa

let sep = Doc_map.sep
let sym_of_char = Doc_map.sym_of_char
let char_of_sym = Doc_map.char_of_sym
let sigma = 258

type t = {
  docs : Doc_map.t;
  m : int; (* rows = total_len + 1 *)
  c_before : int array; (* first-symbol block boundaries *)
  psi_blocks : Elias_fano.t option array; (* per symbol: psi values of its block *)
  sample : int;
  marked : Rank_select.t; (* rows whose text position is ≡ 0 (mod s) *)
  sample_vals : Int_vec.t;
  isa : Int_vec.t; (* isa.(i) = row of suffix at i*sample *)
}

let name = "csa"

let build ?(tick = fun () -> ()) ~sample (doc_strs : string array) : t =
  if sample < 1 then invalid_arg "Csa_static.build: sample < 1";
  let docs = Doc_map.of_lengths (Array.map String.length doc_strs) in
  let n = Doc_map.total_len docs in
  let m = n + 1 in
  let conc = Array.make m 0 in
  Array.iteri
    (fun d str ->
      let st = Doc_map.doc_start docs d in
      String.iteri (fun i ch -> conc.(st + i) <- sym_of_char ch) str;
      conc.(st + String.length str) <- sep;
      tick ())
    doc_strs;
  let sa = Sais.raw ~tick conc sigma in
  let isa_full = Array.make m 0 in
  Array.iteri
    (fun row pos ->
      tick ();
      isa_full.(pos) <- row)
    sa;
  (* psi.(row) = row of the suffix one position later (cyclically) *)
  let psi = Array.make m 0 in
  Array.iteri
    (fun row pos ->
      tick ();
      psi.(row) <- isa_full.((pos + 1) mod m))
    sa;
  let c_before = Bwt.counts_before conc sigma in
  (* per first-symbol block, psi is increasing: Elias-Fano each block *)
  let psi_blocks =
    Array.init sigma (fun c ->
        let lo = c_before.(c) and hi = if c + 1 < sigma then c_before.(c + 1) else m in
        if hi <= lo then None
        else begin
          tick ();
          Some (Elias_fano.build (Array.sub psi lo (hi - lo)))
        end)
  in
  (* sampling: positions ≡ 0 (mod s) plus the sentinel position n, so
     the forward psi-walk of [position_of_row] always terminates before
     wrapping *)
  let sampled pos = pos = n || pos mod sample = 0 in
  let mark_bv = Bitvec.create m in
  let n_samples = ref 0 in
  Array.iteri
    (fun row pos ->
      if sampled pos then begin
        Bitvec.set mark_bv row;
        incr n_samples
      end)
    sa;
  let sample_vals = Int_vec.create ~width:(max 1 (Int_vec.width_for (max 1 n))) !n_samples in
  let k = ref 0 in
  Array.iter
    (fun pos ->
      tick ();
      if sampled pos then begin
        Int_vec.set sample_vals !k pos;
        incr k
      end)
    sa;
  let n_isa = (n / sample) + 1 in
  let isa = Int_vec.create ~width:(max 1 (Int_vec.width_for m)) n_isa in
  for i = 0 to n_isa - 1 do
    tick ();
    Int_vec.set isa i isa_full.(i * sample)
  done;
  {
    docs;
    m;
    c_before;
    psi_blocks;
    sample;
    marked = Rank_select.build mark_bv;
    sample_vals;
    isa;
  }

let doc_count t = Doc_map.doc_count t.docs
let doc_len t d = Doc_map.doc_len t.docs d
let total_len t = Doc_map.total_len t.docs
let row_count t = t.m

(* First symbol of the suffix in [row]: binary search over the C array. *)
let first_symbol t row =
  let lo = ref 0 and hi = ref sigma in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.c_before.(mid) <= row then lo := mid else hi := mid
  done;
  !lo

let[@inline] psi t row =
  let c = first_symbol t row in
  match t.psi_blocks.(c) with
  | None -> invalid_arg "Csa_static.psi: corrupt blocks"
  | Some ef -> Elias_fano.get ef (row - t.c_before.(c))

(* Lexicographic comparison of pattern [p] (mapped symbols) against the
   suffix in [row], extracting suffix symbols with psi steps. *)
let compare_suffix t (p : int array) row =
  (* -1: suffix < p; 0: suffix starts with p; 1: suffix > p *)
  let rec go row k =
    if k >= Array.length p then 0
    else begin
      let c = first_symbol t row in
      if c < p.(k) then -1 else if c > p.(k) then 1 else go (psi t row) (k + 1)
    end
  in
  go row 0

let range t (pat : string) : (int * int) option =
  if String.length pat = 0 then invalid_arg "Csa_static.range: empty pattern";
  let p = Array.init (String.length pat) (fun i -> sym_of_char pat.[i]) in
  (* restrict to the block of the first symbol, then binary search *)
  let c0 = p.(0) in
  let blo = t.c_before.(c0) and bhi = if c0 + 1 < sigma then t.c_before.(c0 + 1) else t.m in
  if bhi <= blo then None
  else begin
    (* first row with suffix >= p *)
    let lo = ref blo and hi = ref bhi in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if compare_suffix t p mid < 0 then lo := mid + 1 else hi := mid
    done;
    let first = !lo in
    let lo = ref first and hi = ref bhi in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if compare_suffix t p mid <= 0 then lo := mid + 1 else hi := mid
    done;
    if first >= !lo then None else Some (first, !lo)
  end

(* Text position of the suffix in [row]: psi-walk forward to a sampled
   row; position = sample - steps. *)
let position_of_row t row =
  let row = ref row and steps = ref 0 in
  while not (Rank_select.get t.marked !row) do
    row := psi t !row;
    incr steps
  done;
  let idx = Rank_select.rank1 t.marked !row in
  Int_vec.get t.sample_vals idx - !steps

let locate t row =
  if row < 0 || row >= t.m then invalid_arg "Csa_static.locate";
  Doc_map.locate t.docs (position_of_row t row)

(* Row of the suffix starting at global text position [pos]. *)
let row_of_position t pos =
  let n = total_len t in
  if pos < 0 || pos > n then invalid_arg "Csa_static.row_of_position";
  if pos = n then (* sentinel row *) 0
  else begin
    let anchor = (pos / t.sample) * t.sample in
    let row = ref (Int_vec.get t.isa (pos / t.sample)) in
    for _ = 1 to pos - anchor do
      row := psi t !row
    done;
    !row
  end

let extract t ~doc ~off ~len =
  let dl = doc_len t doc in
  if off < 0 || len < 0 || off + len > dl then invalid_arg "Csa_static.extract: out of document";
  let g = Doc_map.doc_start t.docs doc + off in
  let row = ref (row_of_position t g) in
  let buf = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set buf i (char_of_sym (first_symbol t !row));
    row := psi t !row
  done;
  Bytes.unsafe_to_string buf

(* Every document by one forward Psi walk over the whole text.  The
   first-symbol and Psi columns are decoded into plain arrays block by
   block first, so the walk itself is two array reads per symbol.
   [tick] is charged once per decoded row and once per step of the walk. *)
let docs ?(tick = fun () -> ()) t =
  let n = total_len t in
  let first = Array.make t.m 0 and next = Array.make t.m 0 in
  Array.iteri
    (fun c -> function
      | None -> ()
      | Some ef ->
        let lo = t.c_before.(c) in
        for k = 0 to Elias_fano.length ef - 1 do
          tick ();
          first.(lo + k) <- c;
          next.(lo + k) <- Elias_fano.get ef k
        done)
    t.psi_blocks;
  let text = Array.make n 0 in
  let row = ref (Int_vec.get t.isa 0) in
  for p = 0 to n - 1 do
    tick ();
    text.(p) <- first.(!row);
    row := next.(!row)
  done;
  Doc_map.split ~tick t.docs text

let iter_doc_rows t doc ~f =
  let st = Doc_map.doc_start t.docs doc in
  let l = doc_len t doc in
  let row = ref (row_of_position t st) in
  f !row;
  for _ = 1 to l do
    row := psi t !row;
    f !row
  done

let space_bits t =
  Array.fold_left
    (fun a -> function None -> a | Some ef -> a + Elias_fano.space_bits ef)
    0 t.psi_blocks
  + (Array.length t.c_before * 63)
  + Rank_select.space_bits t.marked + Int_vec.space_bits t.sample_vals + Int_vec.space_bits t.isa
  + Doc_map.space_bits t.docs + (4 * 63)
