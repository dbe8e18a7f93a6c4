(* Baseline dynamic FM-index over a document collection, in the style of
   Chan-Hon-Lam [9] / Makinen-Navarro [30] / Navarro-Nekrich [35]: the
   BWT of the collection is maintained directly in a dynamic wavelet tree
   under document insertions and deletions.

   Every operation on the BWT costs O(log n log sigma) through the
   dynamic rank/select machinery -- this is precisely the Fredman-Saks
   bottleneck the paper's Transformations avoid.  Used as the comparison
   baseline for Table 2.  The wavelet tree's bitvectors are SPSI
   B-trees; the symbol counts are a Fenwick tree.

   Conventions: separator/sentinel symbol 1 terminates every document
   (pattern characters are code+2 as elsewhere).  Sentinel rows occupy
   the prefix [0, ndocs) of the row space in document-insertion order.
   That order is tracked indexably: [sent_docs] appends each doc id to
   the next slot forever, [sent_alive] keeps one liveness bit per slot,
   and a doc's sentinel row is the rank of its slot among live slots --
   every lookup is O(log n), where the old list walk was O(ndocs) per
   insert/delete/locate (quadratic under churn).

   Counting queries (backward search) are fully supported.  Locating is
   supported by walking LF to the document start (cost O(off * log n
   log sigma)); the production-quality sampled-locate of the static side
   is deliberately not replicated here -- the baseline exists to measure
   count/update costs (see DESIGN.md). *)

open Dsdg_bits
open Dsdg_delbits

let sep = 1
let sigma = 258
let sym_of_char c = Char.code c + 2

type t = {
  wt : Dyn_wavelet.t; (* the BWT *)
  alpha : Fenwick.t; (* symbol counts; C(c) = prefix sums *)
  mutable sent_docs : int array; (* slot -> doc id, append-only *)
  mutable sent_len : int; (* slots used *)
  sent_alive : Spsi.t; (* one bit per slot: doc still present? *)
  sent_slot : (int, int) Hashtbl.t; (* doc id -> slot *)
  docs : (int, int) Hashtbl.t; (* doc id -> length *)
}

let create () =
  {
    wt = Dyn_wavelet.create ~sigma ();
    alpha = Fenwick.create sigma;
    sent_docs = Array.make 16 0;
    sent_len = 0;
    sent_alive = Spsi.create ();
    sent_slot = Hashtbl.create 16;
    docs = Hashtbl.create 16;
  }

let doc_count t = Hashtbl.length t.docs
let total_symbols t = Dyn_wavelet.length t.wt
let mem t id = Hashtbl.mem t.docs id

(* C(c): number of BWT symbols strictly smaller than c. *)
let c_before t c = Fenwick.prefix t.alpha c

let wt_insert t pos c =
  Dyn_wavelet.insert t.wt pos c;
  Fenwick.add t.alpha c 1

let wt_delete t pos =
  let c = Dyn_wavelet.access t.wt pos in
  Dyn_wavelet.delete t.wt pos;
  Fenwick.add t.alpha c (-1);
  c

(* Sentinel-row index of a live doc: rank of its slot among live slots. *)
let sentinel_row t id =
  match Hashtbl.find_opt t.sent_slot id with
  | None -> invalid_arg "Dyn_fm.sentinel_row: unknown doc"
  | Some slot -> Spsi.rank1 t.sent_alive slot

(* Doc owning sentinel row [k] (k-th live slot). *)
let doc_of_sentinel t k = t.sent_docs.(Spsi.select1 t.sent_alive k)

let sentinel_append t id =
  if t.sent_len = Array.length t.sent_docs then begin
    let nd = Array.make (2 * t.sent_len) 0 in
    Array.blit t.sent_docs 0 nd 0 t.sent_len;
    t.sent_docs <- nd
  end;
  t.sent_docs.(t.sent_len) <- id;
  Hashtbl.replace t.sent_slot id t.sent_len;
  Spsi.push_back t.sent_alive true;
  t.sent_len <- t.sent_len + 1

let sentinel_remove t id =
  match Hashtbl.find_opt t.sent_slot id with
  | None -> ()
  | Some slot ->
    Spsi.set t.sent_alive slot false;
    Hashtbl.remove t.sent_slot id

(* Insert document [text] with id [id]: standard backward extension.  The
   new sentinel becomes the last sentinel row; we then insert the
   document's symbols from last to first, tracking the insertion point
   with LF steps. *)
let insert t ~doc (text : string) =
  if Hashtbl.mem t.docs doc then invalid_arg "Dyn_fm.insert: duplicate doc id";
  let m = String.length text in
  let ndocs = doc_count t in
  Hashtbl.replace t.docs doc m;
  sentinel_append t doc;
  (* the sentinel row of the new doc is row [ndocs]; its L-symbol is the
     last character of the text (or the sentinel itself if empty) *)
  let pos = ref ndocs in
  for i = m - 1 downto 0 do
    let c = sym_of_char text.[i] in
    wt_insert t !pos c;
    (* +1: the new document's sentinel-first row already exists (inserted
       first, always inside the sentinel block hence before any char
       block) but its sentinel symbol only enters L at the very end, so
       C-based LF undercounts by exactly one *)
    pos := c_before t c + Dyn_wavelet.rank t.wt c !pos + 1
  done;
  (* finally the row of the full suffix text[0..]: its L-symbol is the
     sentinel *)
  wt_insert t !pos sep

(* Backward search; returns the BWT row range of suffixes prefixed by p. *)
let range t (p : string) : (int * int) option =
  let len = String.length p in
  if len = 0 then invalid_arg "Dyn_fm.range: empty pattern";
  let sp = ref 0 and ep = ref (Dyn_wavelet.length t.wt) in
  let ok = ref true in
  let i = ref (len - 1) in
  while !ok && !i >= 0 do
    let c = sym_of_char p.[!i] in
    sp := c_before t c + Dyn_wavelet.rank t.wt c !sp;
    ep := c_before t c + Dyn_wavelet.rank t.wt c !ep;
    if !sp >= !ep then ok := false;
    decr i
  done;
  if !ok then Some (!sp, !ep) else None

let count t p = match range t p with None -> 0 | Some (sp, ep) -> ep - sp

(* First symbol of the suffix in [row]: the c with C(c) <= row < C(c+1) —
   one searchable-partial-sums descent over the symbol counts. *)
let first_symbol t row = Fenwick.search t.alpha row

(* One psi step: row of suffix T[j..] -> row of suffix T[j+1..].  This is
   the exact inverse of the LF links the insertion walk created, so it is
   consistent even across equal sentinels. *)
let psi t row =
  let c = first_symbol t row in
  (c, Dyn_wavelet.select t.wt c (row - c_before t c))

(* Delete document [id]: starting from its sentinel row, walk backward
   through the document with char-LF steps -- these never select within
   the sentinel class, where L-order and block order may disagree --
   collect the m+1 rows, then remove them in decreasing row order so
   earlier removals do not shift later targets. *)
let delete t id =
  match Hashtbl.find_opt t.docs id with
  | None -> false
  | Some len ->
    let k = sentinel_row t id in
    let rows = Array.make (len + 1) 0 in
    rows.(0) <- k;
    let cur = ref k in
    for step = 1 to len do
      (* L[cur] is a character of the document; LF to the previous row *)
      let c = Dyn_wavelet.access t.wt !cur in
      cur := c_before t c + Dyn_wavelet.rank t.wt c !cur;
      rows.(step) <- !cur
    done;
    (* at the end, L[cur] must be the document's sentinel *)
    Array.sort (fun a b -> compare b a) rows;
    Array.iter (fun row -> ignore (wt_delete t row)) rows;
    sentinel_remove t id;
    Hashtbl.remove t.docs id;
    true

(* Locate one occurrence: psi-walk forward until the sentinel block
   (rows [0, ndocs) hold the sentinel-first rotations, in slot order).
   Returns (doc, off).  O((len - off) * log n log sigma). *)
let locate t row =
  let row = ref row and steps = ref 0 in
  (* rows [0, ndocs) are exactly the sentinel-first rotations *)
  while !row >= doc_count t do
    let _, next = psi t !row in
    row := next;
    incr steps
  done;
  let doc = doc_of_sentinel t !row in
  let len = Hashtbl.find t.docs doc in
  (doc, len - !steps)

let search t p =
  match range t p with
  | None -> []
  | Some (sp, ep) -> List.sort compare (List.init (ep - sp) (fun k -> locate t (sp + k)))

let space_bits t =
  let w = Popcount.word_bits in
  Dyn_wavelet.space_bits t.wt + Fenwick.space_bits t.alpha
  + (Array.length t.sent_docs * w)
  + Spsi.space_bits t.sent_alive
  + (doc_count t * 4 * w)
