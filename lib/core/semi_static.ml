(* Semi-static deletion-only index (Section 2, first half): a static index
   augmented with

   - a Reporter (Lemma 3) over suffix-array rows so that surviving
     occurrences in a query range are reported in O(1) each,
   - the Reporter's integrated word-level counter so that surviving
     occurrences are *counted* in O(log n) (Theorem 1),
   - document liveness bookkeeping and the n/tau purge threshold.

   Deleting a document walks the rows of its suffixes (O(|T| + tSA)) and
   zeroes them.  When dead symbols exceed live/tau the owner is expected
   to rebuild (see [needs_purge]); this module never rebuilds itself. *)

open Dsdg_bits
open Dsdg_delbits
open Dsdg_obs

(* The strictly ascending slot -> id map.  Ids are stored as offsets
   from the first, packed at the width the span needs; only a span past
   62 bits (ids from near [min_int] to near [max_int]) keeps whole
   words. *)
module Ids = struct
  type t = Packed of { base : int; offs : Int_vec.t } | Wide of int array

  let of_sorted (a : int array) =
    let n = Array.length a in
    if n = 0 then Packed { base = 0; offs = Int_vec.create ~width:1 0 }
    else
      let base = a.(0) in
      let span = a.(n - 1) - base in
      if span < 0 then Wide a
      else Packed { base; offs = Int_vec.of_array ~width:(Int_vec.width_for span) (Array.map (fun id -> id - base) a) }

  let length = function Packed { offs; _ } -> Int_vec.length offs | Wide a -> Array.length a

  let get t slot = match t with Packed { base; offs } -> base + Int_vec.get offs slot | Wide a -> a.(slot)

  (* The slot holding [id], if any: a binary search, on offsets when
     packed (an id below the base, or one whose offset overflows, is
     outside every stored id). *)
  let find t id =
    match t with
    | Wide a ->
      let lo = ref 0 and hi = ref (Array.length a) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if a.(mid) < id then lo := mid + 1 else hi := mid
      done;
      if !lo < Array.length a && a.(!lo) = id then Some !lo else None
    | Packed { base; offs } ->
      let off = id - base in
      if id < base || off < 0 then None
      else
        let k = Int_vec.count_le offs off in
        if k > 0 && Int_vec.unsafe_get offs (k - 1) = off then Some (k - 1) else None

  (* A constructor block (header and two fields) and the packed vector,
     or a one-field block and the word array. *)
  let space_bits = function
    | Packed { offs; _ } -> Int_vec.space_bits offs + (3 * 63)
    | Wide a -> (Array.length a + 3) * 63
end

(* Process-wide scope shared by every Semi_static instance: build/delete/
   search/count totals and a build-size histogram.  Per-instance detail
   lives in the owning transformation's private scope. *)
(* The n/tau purge rule as a standalone predicate: dead * tau > total,
   computed as a division so the product cannot overflow for
   collections (or tau values) near max_int.  For dead, total >= 0 and
   tau >= 1,  dead * tau > total  <=>  dead > total / tau  (floor
   division): both say dead >= floor(total/tau) + 1. *)
let purge_threshold_exceeded ~dead_syms ~total_symbols ~tau =
  dead_syms > total_symbols / tau

let obs = Obs.scope "semi_static"
let c_builds = Obs.counter obs "builds"
let c_deletes = Obs.counter obs "deletes"
let c_searches = Obs.counter obs "searches"
let c_counts = Obs.counter obs "counts"
let h_build_syms = Obs.histogram obs "build_syms"

module Make (I : Static_index.S) = struct
  type t = {
    index : I.t;
    ids : Ids.t; (* slot -> external doc id, strictly ascending *)
    dead : Bitvec.t; (* by slot *)
    alive_rows : Reporter.t;
    mutable live_syms : int;
    mutable dead_syms : int;
    tau : int;
    mutable view_cache : Epoch_view.component option; (* invalidated by delete *)
  }

  (* Documents are indexed in id order, so [ids] is the one id map: a
     binary search over it finds a document's slot. *)
  let build ?tick ~sample ~tau (docs : (int * string) array) : t =
    if tau < 1 then invalid_arg "Semi_static.build: tau < 1";
    let docs = Array.copy docs in
    Array.stable_sort (fun (a, _) (b, _) -> Int.compare a b) docs;
    let ids = Array.map fst docs in
    for slot = 1 to Array.length ids - 1 do
      if ids.(slot) = ids.(slot - 1) then invalid_arg "Semi_static.build: duplicate doc id"
    done;
    let index = I.build ?tick ~sample (Array.map snd docs) in
    let m = I.row_count index in
    Obs.incr c_builds;
    Obs.observe h_build_syms (I.total_len index);
    {
      index;
      ids = Ids.of_sorted ids;
      dead = Bitvec.create (Array.length ids);
      alive_rows = Reporter.create_full m;
      live_syms = I.total_len index;
      dead_syms = 0;
      tau;
      view_cache = None;
    }

  (* The slot of a live document. *)
  let live_slot t id =
    match Ids.find t.ids id with
    | Some slot when not (Bitvec.get t.dead slot) -> Some slot
    | _ -> None

  let mem t id = live_slot t id <> None

  let live_symbols t = t.live_syms
  let dead_symbols t = t.dead_syms
  let total_symbols t = t.live_syms + t.dead_syms
  let doc_count t = Ids.length t.ids - Bitvec.count t.dead
  let needs_purge t =
    purge_threshold_exceeded ~dead_syms:t.dead_syms ~total_symbols:(total_symbols t)
      ~tau:t.tau
  let is_empty t = t.live_syms = 0

  let delete t id =
    match live_slot t id with
    | None -> false
    | Some slot ->
      Bitvec.set t.dead slot;
      I.iter_doc_rows t.index slot ~f:(fun row -> Reporter.zero t.alive_rows row);
      let syms = I.doc_len t.index slot + 1 in
      t.live_syms <- t.live_syms - syms;
      t.dead_syms <- t.dead_syms + syms;
      t.view_cache <- None;
      Obs.incr c_deletes;
      true

  (* Report (doc, off) for every surviving occurrence of [p]. *)
  let search t p ~f =
    Obs.incr c_searches;
    match I.range t.index p with
    | None -> ()
    | Some (sp, ep) ->
      Reporter.report t.alive_rows sp ep (fun row ->
          let slot, off = I.locate t.index row in
          f ~doc:(Ids.get t.ids slot) ~off)

  (* Count surviving occurrences in O(trange + log n) (Theorem 1): the
     Reporter's word-level Fenwick counts live rows in the range. *)
  let count t p =
    Obs.incr c_counts;
    match I.range t.index p with
    | None -> 0
    | Some (sp, ep) -> Reporter.count_range t.alive_rows sp ep

  let extract t ~doc ~off ~len =
    match live_slot t doc with
    | None -> None
    | Some slot ->
      if off < 0 || len < 0 || off + len > I.doc_len t.index slot then None
      else Some (I.extract t.index ~doc:slot ~off ~len)

  let doc_len t id = Option.map (I.doc_len t.index) (live_slot t id)

  (* Live documents with their contents, read back from the index itself
     (the dynamic structures never retain plaintext for compressed
     sub-collections) by one bulk inversion: every resident document is
     decoded, live and dead, and the dead ones are dropped.  Slot order
     is id order.  [tick] is charged O(1) times per decoded symbol, so
     this can run inside an Incremental job. *)
  let live_docs ?tick t : (int * string) list =
    let texts = I.docs ?tick t.index in
    let acc = ref [] in
    for slot = Ids.length t.ids - 1 downto 0 do
      if not (Bitvec.get t.dead slot) then acc := (Ids.get t.ids slot, texts.(slot)) :: !acc
    done;
    !acc

  (* The record is a header and eight fields; [Bitvec.space_bits]
     leaves out the dead vector's own record (a header and two
     fields). *)
  let space_bits t =
    I.space_bits t.index + Reporter.space_bits t.alive_rows + Ids.space_bits t.ids
    + Bitvec.space_bits t.dead
    + ((9 + 3) * 63)

  let index t = t.index

  (* --- read plane --- *)

  (* Cached between deletes: only [delete] mutates a built instance, so
     a snapshot after k deletes since the last one costs one Reporter +
     dead-bit copy, amortized against those deletes.  The frozen copy
     shares the static index and the id table (never changed after
     build) and owns its deletion state; nothing ever deletes from it,
     so this module's queries answer for the snapshot on any domain
     while the original keeps flipping dead bits. *)
  let snapshot t =
    match t.view_cache with
    | Some c -> c
    | None ->
      let f =
        { t with dead = Bitvec.copy t.dead; alive_rows = Reporter.copy t.alive_rows; view_cache = None }
      in
      let c =
        {
          Epoch_view.live = f.live_syms;
          dead = f.dead_syms;
          search = search f;
          count = count f;
          mem = mem f;
          extract = extract f;
          docs = (fun () -> live_docs f);
        }
      in
      t.view_cache <- Some c;
      c
end
