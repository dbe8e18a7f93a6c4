(* Mapping between global positions in a document concatenation and
   (document, offset) pairs.

   The concatenation is doc_0 SEP doc_1 SEP ... doc_{r-1} SEP, so document
   [d] owns global positions [starts.(d), starts.(d+1) - 1) and position
   [starts.(d+1) - 1] is its separator. *)

(* The symbol mapping every static index uses: 0 is the sentinel, 1 the
   document separator and character c is code c + 2, so patterns never
   match across a separator. *)
let sep = 1
let sym_of_char c = Char.code c + 2
let char_of_sym s = Char.chr (s - 2)

type t = {
  starts : int array; (* length = doc_count + 1; starts.(doc_count) = n *)
}

let of_lengths (lens : int array) : t =
  let r = Array.length lens in
  let starts = Array.make (r + 1) 0 in
  for d = 0 to r - 1 do
    starts.(d + 1) <- starts.(d) + lens.(d) + 1
  done;
  { starts }

let doc_count t = Array.length t.starts - 1
let total_len t = t.starts.(doc_count t)
let doc_start t d = t.starts.(d)
let doc_len t d = t.starts.(d + 1) - t.starts.(d) - 1

(* Global position -> (doc, offset).  The offset may equal the document
   length, in which case the position is the document's separator. *)
let locate t p =
  if p < 0 || p >= total_len t then invalid_arg "Doc_map.locate";
  (* binary search: largest d with starts.(d) <= p *)
  let lo = ref 0 and hi = ref (doc_count t) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.starts.(mid) <= p then lo := mid else hi := mid
  done;
  (!lo, p - t.starts.(!lo))

(* Cut a concatenation of mapped symbols back into its documents;
   separators are skipped.  [tick] is charged once per symbol,
   separators included. *)
let split ?(tick = fun () -> ()) t (text : int array) =
  Array.init (doc_count t) (fun d ->
      tick ();
      let st = t.starts.(d) in
      String.init (doc_len t d) (fun i ->
          tick ();
          char_of_sym text.(st + i)))

let space_bits t = (Array.length t.starts + 3) * 63
