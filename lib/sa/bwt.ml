(* Burrows-Wheeler transform and LF-mapping utilities.

   Conventions: the text [t] is an int array whose last symbol is a unique
   smallest sentinel (0).  [sa] is its full suffix array (including the
   sentinel suffix).  The BWT is then bwt.(i) = t.((sa.(i) + n - 1) mod n). *)

let of_sa (t : int array) (sa : int array) : int array =
  let n = Array.length t in
  if Array.length sa <> n then invalid_arg "Bwt.of_sa: length mismatch";
  Array.init n (fun i ->
      let j = sa.(i) in
      if j = 0 then t.(n - 1) else t.(j - 1))

(* Build text+sentinel from a plain symbol array with values >= 0
   (symbols get shifted by +1).  Returns (t, sigma). *)
let with_sentinel (s : int array) : int array * int =
  let n = Array.length s in
  let t = Array.make (n + 1) 0 in
  let sigma = ref 1 in
  for i = 0 to n - 1 do
    t.(i) <- s.(i) + 1;
    if t.(i) >= !sigma then sigma := t.(i) + 1
  done;
  (t, !sigma)

let transform ?tick (s : int array) : int array =
  let t, sigma = with_sentinel s in
  let sa = Sais.raw ?tick t sigma in
  of_sa t sa

(* Counts-before array: c_before.(c) = number of symbols in [bwt] that are
   strictly smaller than [c]. *)
let counts_before (bwt : int array) (sigma : int) : int array =
  let counts = Array.make sigma 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) bwt;
  let before = Array.make (sigma + 1) 0 in
  for c = 1 to sigma do
    before.(c) <- before.(c - 1) + counts.(c - 1)
  done;
  before

(* The single inversion routine.  [bwt] is the BWT of a text ending in a
   unique smallest sentinel 0, so row 0 is the sentinel suffix; the
   result is that text without its sentinel.  LF comes from one counting
   pass -- row i's LF is the count of smaller symbols plus the
   occurrences of bwt.(i) before i -- and one walk backwards from row 0
   reads the text right to left.  O(n) time and two O(n) arrays; [tick]
   is charged once per row in each of the two passes. *)
let invert ?(tick = fun () -> ()) (bwt : int array) : int array =
  let n = Array.length bwt in
  if n = 0 then [||]
  else begin
    let sigma = 1 + Array.fold_left max 0 bwt in
    let next = counts_before bwt sigma in
    let lf = Array.make n 0 in
    for i = 0 to n - 1 do
      tick ();
      let c = Array.unsafe_get bwt i in
      Array.unsafe_set lf i (Array.unsafe_get next c);
      Array.unsafe_set next c (Array.unsafe_get next c + 1)
    done;
    let out = Array.make (n - 1) 0 in
    let row = ref 0 in
    for k = n - 2 downto 0 do
      tick ();
      Array.unsafe_set out k (Array.unsafe_get bwt !row);
      row := Array.unsafe_get lf !row
    done;
    out
  end

(* Invert a BWT produced by [transform]; returns the original array [s]. *)
let inverse (bwt : int array) : int array = Array.map (fun c -> c - 1) (invert bwt)
