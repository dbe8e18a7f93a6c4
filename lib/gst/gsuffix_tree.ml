(* Generalized suffix tree with online (Ukkonen) insertion of documents:
   the uncompressed fully-dynamic buffer C0 of the paper (Appendix A.2).

   - Insertion of a document T is O(|T|) expected (hashed child dispatch,
     the paper's own choice for large alphabets).
   - Every document is terminated by a unique negative symbol, so all its
     suffixes end at leaves and patterns (non-negative symbols) never
     match across documents.
   - Deletion is doc-level lazy: the document is marked dead, its leaves
     are filtered during reporting, and the whole tree is rebuilt from the
     live documents once dead symbols outnumber live ones (amortized
     O(1)/symbol).  Edge labels hold a GC-managed handle to their source
     text, so labels never dangle.
   - Queries: all occ occurrences of P reported in O(|P| + occ) plus the
     cost of skipping dead leaves (bounded on average by the <= 1/2 dead
     fraction). *)

open Dsdg_obs

(* Process-wide scope shared by every tree instance (C0 buffers are
   created and discarded constantly by the dynamization layers). *)
let obs = Obs.scope "gst"
let c_inserts = Obs.counter obs "inserts"
let c_deletes = Obs.counter obs "deletes"
let c_rebuilds = Obs.counter obs "rebuilds"
let c_searches = Obs.counter obs "searches"
let h_rebuild_syms = Obs.histogram obs "rebuild_syms"

type text = {
  doc : int;
  chars : string;
}

(* Symbol at position [i] of [txt], where position [length chars] is the
   unique terminator. *)
let[@inline] sym txt i =
  if i < String.length txt.chars then Char.code txt.chars.[i] else -txt.doc - 1

let text_len txt = String.length txt.chars + 1

type node = {
  mutable text : text; (* source of the incoming edge label *)
  mutable start : int; (* label = text[start .. start + elen) *)
  mutable elen : int; (* -1 = open edge (current insertion run) *)
  mutable children : (int, node) Hashtbl.t; (* empty for leaves *)
  mutable slink : node option;
  mutable suffix : int; (* for leaves: starting offset of the suffix; -1 otherwise *)
}

(* Read-plane view: a frozen copy of the live documents.  The Ukkonen
   tree itself is too mutable to share across domains, but C0 is bounded
   by 2n/log^2 n symbols, so a view answers queries by naive scanning
   over the (few, short) buffered documents -- O(sum |doc|) per pattern,
   within the paper's budget for the buffer, and entirely immutable. *)
type view = {
  v_docs : (int * string) array; (* live documents, frozen, sorted by id *)
  v_tbl : (int, string) Hashtbl.t; (* id -> contents; never mutated after build *)
  v_live_syms : int;
  v_dead_syms : int;
}

type t = {
  mutable root : node;
  mutable docs : (int, string) Hashtbl.t; (* live documents *)
  mutable dead : (int, unit) Hashtbl.t;
  mutable live_syms : int;
  mutable dead_syms : int;
  mutable node_count : int;
  mutable leaf_end : int; (* end position of open edges during insertion *)
  mutable view_cache : view option; (* invalidated by insert/delete *)
}

let dummy_text = { doc = min_int / 2; chars = "" }

let new_root () =
  {
    text = dummy_text;
    start = 0;
    elen = 0;
    children = Hashtbl.create 8;
    slink = None;
    suffix = -1;
  }

let create () =
  {
    root = new_root ();
    docs = Hashtbl.create 16;
    dead = Hashtbl.create 16;
    live_syms = 0;
    dead_syms = 0;
    node_count = 1;
    leaf_end = 0;
    view_cache = None;
  }

let is_leaf nd = Hashtbl.length nd.children = 0
let[@inline] edge_len t nd = if nd.elen >= 0 then nd.elen else t.leaf_end - nd.start + 1

(* Core Ukkonen insertion of one document (assumes doc id not present). *)
let ukkonen_insert t txt =
  let total = text_len txt in
  let new_leaves = ref [] in
  let active_node = ref t.root in
  let active_edge = ref 0 in
  let active_len = ref 0 in
  let remainder = ref 0 in
  for i = 0 to total - 1 do
    t.leaf_end <- i;
    incr remainder;
    let last_new = ref None in
    let link_pending target =
      match !last_new with
      | None -> ()
      | Some nd ->
        nd.slink <- Some target;
        last_new := None
    in
    let continue = ref true in
    while !continue && !remainder > 0 do
      if !active_len = 0 then active_edge := i;
      let ae_sym = sym txt !active_edge in
      match Hashtbl.find_opt !active_node.children ae_sym with
      | None ->
        (* new leaf hanging off the active node *)
        let leaf =
          {
            text = txt;
            start = i;
            elen = -1;
            children = Hashtbl.create 1;
            slink = None;
            suffix = i - !remainder + 1;
          }
        in
        t.node_count <- t.node_count + 1;
        new_leaves := leaf :: !new_leaves;
        Hashtbl.replace !active_node.children ae_sym leaf;
        link_pending !active_node;
        decr remainder;
        if !active_node == t.root && !active_len > 0 then begin
          decr active_len;
          active_edge := i - !remainder + 1
        end
        else if not (!active_node == t.root) then
          active_node := (match !active_node.slink with Some s -> s | None -> t.root)
      | Some next ->
        let el = edge_len t next in
        if !active_len >= el then begin
          (* walk down *)
          active_edge := !active_edge + el;
          active_len := !active_len - el;
          active_node := next
        end
        else if sym next.text (next.start + !active_len) = sym txt i then begin
          (* symbol already present: rule 3, stop here *)
          incr active_len;
          link_pending !active_node;
          continue := false
        end
        else begin
          (* split the edge *)
          let split =
            {
              text = next.text;
              start = next.start;
              elen = !active_len;
              children = Hashtbl.create 2;
              slink = None;
              suffix = -1;
            }
          in
          t.node_count <- t.node_count + 1;
          Hashtbl.replace !active_node.children ae_sym split;
          next.start <- next.start + !active_len;
          if next.elen >= 0 then next.elen <- next.elen - !active_len;
          Hashtbl.replace split.children (sym next.text next.start) next;
          let leaf =
            {
              text = txt;
              start = i;
              elen = -1;
              children = Hashtbl.create 1;
              slink = None;
              suffix = i - !remainder + 1;
            }
          in
          t.node_count <- t.node_count + 1;
          new_leaves := leaf :: !new_leaves;
          Hashtbl.replace split.children (sym txt i) leaf;
          link_pending split;
          last_new := Some split;
          decr remainder;
          if !active_node == t.root && !active_len > 0 then begin
            decr active_len;
            active_edge := i - !remainder + 1
          end
          else if not (!active_node == t.root) then
            active_node := (match !active_node.slink with Some s -> s | None -> t.root)
        end
    done
  done;
  (* freeze open edges: only leaves created in this run have them, so the
     whole insertion stays O(|T|) *)
  List.iter (fun nd -> if nd.elen < 0 then nd.elen <- total - nd.start) !new_leaves

let insert t ~doc (contents : string) =
  if Hashtbl.mem t.docs doc then invalid_arg "Gsuffix_tree.insert: duplicate doc id";
  let txt = { doc; chars = contents } in
  Hashtbl.replace t.docs doc contents;
  t.live_syms <- t.live_syms + text_len txt;
  t.view_cache <- None;
  Obs.incr c_inserts;
  ukkonen_insert t txt

let rebuild t =
  Obs.incr c_rebuilds;
  Obs.observe h_rebuild_syms t.live_syms;
  let docs = Hashtbl.fold (fun d s acc -> (d, s) :: acc) t.docs [] in
  t.root <- new_root ();
  t.node_count <- 1;
  t.dead <- Hashtbl.create 16;
  t.dead_syms <- 0;
  List.iter (fun (d, s) -> ukkonen_insert t { doc = d; chars = s }) docs

let delete t doc =
  match Hashtbl.find_opt t.docs doc with
  | None -> false
  | Some contents ->
    Hashtbl.remove t.docs doc;
    Hashtbl.replace t.dead doc ();
    let len = String.length contents + 1 in
    t.live_syms <- t.live_syms - len;
    t.dead_syms <- t.dead_syms + len;
    t.view_cache <- None;
    Obs.incr c_deletes;
    if t.dead_syms > t.live_syms then rebuild t;
    true

let mem t doc = Hashtbl.mem t.docs doc
let get_doc t doc = Hashtbl.find_opt t.docs doc
let doc_count t = Hashtbl.length t.docs
let doc_ids t = Hashtbl.fold (fun d _ acc -> d :: acc) t.docs []
let live_symbols t = t.live_syms
let dead_symbols t = t.dead_syms

(* Find the locus of pattern [p]: the node whose subtree holds exactly the
   suffixes starting with [p]. *)
let locus t (p : string) : node option =
  let pl = String.length p in
  if pl = 0 then invalid_arg "Gsuffix_tree.locus: empty pattern";
  let rec go nd i =
    (* i = number of pattern symbols already matched *)
    if i >= pl then Some nd
    else
      match Hashtbl.find_opt nd.children (Char.code p.[i]) with
      | None -> None
      | Some child ->
        let el = child.elen in
        let rec scan k =
          (* compare pattern[i+k] with label[k] for k < el *)
          if k >= el || i + k >= pl then Some k
          else if sym child.text (child.start + k) = Char.code p.[i + k] then scan (k + 1)
          else None
        in
        (match scan 0 with
        | None -> None
        | Some k -> if i + k >= pl then Some child else go child (i + k))
  in
  go t.root 0

let iter_live_leaves t nd ~f =
  let rec go nd =
    if is_leaf nd then begin
      if not (Hashtbl.mem t.dead nd.text.doc) then f ~doc:nd.text.doc ~off:nd.suffix
    end
    else Hashtbl.iter (fun _ c -> go c) nd.children
  in
  go nd

(* Report all (doc, off) occurrences of [p] among live documents. *)
let search t (p : string) ~f =
  Obs.incr c_searches;
  match locus t p with
  | None -> ()
  | Some nd ->
    (* occurrences whose suffix would run past the end of the document are
       impossible: terminators are unique negative symbols, so any match
       of [p] lies fully inside a live or dead document. *)
    iter_live_leaves t nd ~f

let count t p =
  let c = ref 0 in
  search t p ~f:(fun ~doc:_ ~off:_ -> incr c);
  !c

let occurrences t p =
  let acc = ref [] in
  search t p ~f:(fun ~doc ~off -> acc := (doc, off) :: !acc);
  List.sort compare !acc

(* --- read-plane snapshots --- *)

(* Freeze the live documents.  O(doc_count) when cached (cache hit costs
   nothing); a miss copies the live doc table -- C0 holds at most
   2n/log^2 n symbols, so the copy amortizes against the update that
   invalidated the cache. *)
let snapshot t =
  match t.view_cache with
  | Some v -> v
  | None ->
    let docs = Hashtbl.fold (fun d s acc -> (d, s) :: acc) t.docs [] in
    let arr = Array.of_list (List.sort compare docs) in
    let tbl = Hashtbl.create (max 16 (Array.length arr)) in
    Array.iter (fun (d, s) -> Hashtbl.replace tbl d s) arr;
    let v = { v_docs = arr; v_tbl = tbl; v_live_syms = t.live_syms; v_dead_syms = t.dead_syms } in
    t.view_cache <- Some v;
    v

(* The frozen live documents, sorted by id: the C0 snapshot unit the
   persistence layer serializes (Dsdg_store). *)
let view_docs v = Array.to_list v.v_docs
let view_live_symbols v = v.v_live_syms
let view_dead_symbols v = v.v_dead_syms
let view_mem v doc = Hashtbl.mem v.v_tbl doc
let view_get_doc v doc = Hashtbl.find_opt v.v_tbl doc

(* Naive per-document scan; fine because views only ever cover the
   bounded C0 buffer (see module comment on [view]).  Offsets whose
   first symbol differs are skipped at once, the rest compared in
   place: the scan allocates nothing. *)
let view_search v (p : string) ~f =
  let pl = String.length p in
  if pl = 0 then invalid_arg "Gsuffix_tree.view_search: empty pattern";
  let c0 = String.unsafe_get p 0 in
  Array.iter
    (fun (doc, s) ->
      for off = 0 to String.length s - pl do
        if String.unsafe_get s off = c0 then begin
          let k = ref 1 in
          while !k < pl && String.unsafe_get s (off + !k) = String.unsafe_get p !k do
            incr k
          done;
          if !k = pl then f ~doc ~off
        end
      done)
    v.v_docs

let view_count v p =
  let c = ref 0 in
  view_search v p ~f:(fun ~doc:_ ~off:_ -> incr c);
  !c

(* Rough accounting: nodes dominate (hashtable + fields); count ~16 words
   per node plus the raw document bytes. *)
let space_bits t =
  (t.node_count * 16 * 63)
  + (Hashtbl.fold (fun _ s acc -> acc + String.length s) t.docs 0 * 8)
