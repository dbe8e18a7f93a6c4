(* The uncompressed buffer C0 / L0: an immutable id -> text map behind
   one mutable field.  Every update swaps the map, so a snapshot is the
   map value itself and costs no copy. *)

module Docs = Map.Make (Int)

type t = {
  mutable docs : string Docs.t;
  mutable live : int; (* symbols, one separator per document *)
  mutable view_cache : Epoch_view.component option; (* invalidated by insert/delete *)
}

let create () = { docs = Docs.empty; live = 0; view_cache = None }

let insert t ~doc text =
  if Docs.mem doc t.docs then invalid_arg "Doc_buffer.insert: duplicate doc id";
  t.docs <- Docs.add doc text t.docs;
  t.live <- t.live + String.length text + 1;
  t.view_cache <- None

let delete t doc =
  match Docs.find_opt doc t.docs with
  | None -> false
  | Some text ->
    t.docs <- Docs.remove doc t.docs;
    t.live <- t.live - String.length text - 1;
    t.view_cache <- None;
    true

let find t doc = Docs.find_opt doc t.docs
let live_symbols t = t.live

let docs ?(tick = fun () -> ()) t =
  let docs = Docs.bindings t.docs in
  List.iter
    (fun (_, s) ->
      String.iter (fun _ -> tick ()) s;
      tick ())
    docs;
  docs

(* A map node is 5 fields and a header; a string block is a header
   plus [len / word_bytes + 1] words (the padding byte included); the
   record is 3 fields and a header. *)
let space_bits t =
  let word_bytes = Sys.word_size / 8 in
  let words = Docs.fold (fun _ s acc -> acc + 6 + 2 + (String.length s / word_bytes)) t.docs 4 in
  words * Sys.word_size

(* Naive per-document scan, ascending ids: the buffer holds at most
   2n/log^2 n symbols.  Offsets whose first symbol differs are skipped
   at once, the rest compared in place: the scan allocates nothing. *)
let search docs (p : string) ~f =
  let pl = String.length p in
  if pl = 0 then invalid_arg "Doc_buffer.search: empty pattern";
  let c0 = String.unsafe_get p 0 in
  Docs.iter
    (fun doc s ->
      for off = 0 to String.length s - pl do
        if String.unsafe_get s off = c0 then begin
          let k = ref 1 in
          while !k < pl && String.unsafe_get s (off + !k) = String.unsafe_get p !k do
            incr k
          done;
          if !k = pl then f ~doc ~off
        end
      done)
    docs

let count docs p =
  let c = ref 0 in
  search docs p ~f:(fun ~doc:_ ~off:_ -> incr c);
  !c

let snapshot t =
  match t.view_cache with
  | Some c -> c
  | None ->
    let docs = t.docs in
    let c =
      {
        Epoch_view.live = t.live;
        dead = 0;
        search = search docs;
        count = count docs;
        mem = (fun doc -> Docs.mem doc docs);
        extract =
          (fun ~doc ~off ~len ->
            match Docs.find_opt doc docs with
            | Some s when off >= 0 && len >= 0 && off + len <= String.length s ->
              Some (String.sub s off len)
            | _ -> None);
        docs = (fun () -> Docs.bindings docs);
      }
    in
    t.view_cache <- Some c;
    c
