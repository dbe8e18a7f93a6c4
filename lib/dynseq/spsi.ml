(* SPSI-style dynamic bit vector: a B-tree of high-fanout internal nodes
   whose (subtree length, subtree popcount) pairs live in flat arrays,
   over word-packed leaves of several hundred bits scanned with broadword
   popcount.  This is the cache-efficient substrate of Prezza's DYNAMIC
   and Nishimoto's B-tree_plus_alpha (He-Munro / Munro-Nekrich layouts):
   a descent reads one or two cache lines of counters per level instead
   of chasing one pointer per AVL node, and every in-leaf operation is a
   word-level shift or popcount.

   Layout invariants:
   - leaves hold [llen <= leaf_max] bits packed little-endian in 62-bit
     words; bits >= llen are zero; the array is sized to fit (exact
     words, grown in place on insert, rebuilt exactly on split/merge);
   - internal nodes hold [min_children <= nc <= fanout] children
     (root excepted) with per-child length/popcount in [clen]/[cones];
     slot arrays have one spare slot so a split child can be inserted
     before the node itself splits;
   - all leaves sit at the same depth (the tree only grows or shrinks
     at the root), so siblings always share a constructor.

   Mutation is in place, so updates allocate nothing on the hot path. *)

open Dsdg_bits

let w = Popcount.word_bits
let mask_w = Popcount.low_mask w
let leaf_words = 16
let leaf_max = leaf_words * w (* 992 bits *)
let leaf_min = leaf_max / 4
let fanout = 16
let min_children = fanout / 2

type leaf = { mutable llen : int; mutable data : int array }

type node = L of leaf | N of inode

and inode = {
  mutable nc : int;
  ch : node array; (* fanout + 1 slots; >= nc hold [dummy] *)
  clen : int array; (* clen.(i) = total bits under ch.(i) *)
  cones : int array; (* cones.(i) = total ones under ch.(i) *)
}

type t = { mutable root : node; mutable tlen : int; mutable tones : int }

(* Placeholder for unused child slots; its empty array faults on use. *)
let dummy = L { llen = 0; data = [||] }

(* --- leaf primitives (word-level) --- *)

let mk_leaf () = { llen = 0; data = Array.make 1 0 }

let leaf_ones l =
  let acc = ref 0 in
  for j = 0 to Array.length l.data - 1 do
    acc := !acc + Popcount.count l.data.(j)
  done;
  !acc

let leaf_get l i = (l.data.(i / w) lsr (i mod w)) land 1

let leaf_set l i b =
  let j = i / w in
  if b = 1 then l.data.(j) <- l.data.(j) lor (1 lsl (i mod w))
  else l.data.(j) <- l.data.(j) land lnot (1 lsl (i mod w))

let ensure_cap l needed =
  if needed > Array.length l.data then begin
    let nd = Array.make needed 0 in
    Array.blit l.data 0 nd 0 (Array.length l.data);
    l.data <- nd
  end

let leaf_insert l pos b =
  ensure_cap l ((l.llen + 1 + w - 1) / w);
  let data = l.data in
  let wi = pos / w and off = pos mod w in
  (* shift whole words above the insertion word up by one bit *)
  for j = l.llen / w downto wi + 1 do
    data.(j) <- ((data.(j) lsl 1) land mask_w) lor (data.(j - 1) lsr (w - 1))
  done;
  let cur = data.(wi) in
  let low = cur land Popcount.low_mask off in
  let high = cur lsr off in
  data.(wi) <- low lor (b lsl off) lor ((high lsl (off + 1)) land mask_w);
  l.llen <- l.llen + 1

let leaf_delete l pos =
  let data = l.data in
  let wi = pos / w and off = pos mod w in
  let cur = data.(wi) in
  let b = (cur lsr off) land 1 in
  data.(wi) <- (cur land Popcount.low_mask off) lor ((cur lsr (off + 1)) lsl off);
  for j = wi + 1 to (l.llen - 1) / w do
    data.(j - 1) <- data.(j - 1) lor ((data.(j) land 1) lsl (w - 1));
    data.(j) <- data.(j) lsr 1
  done;
  l.llen <- l.llen - 1;
  b

let leaf_rank1 l pos =
  let data = l.data in
  let wi = pos / w and off = pos mod w in
  let acc = ref 0 in
  for j = 0 to min wi (Array.length data) - 1 do
    acc := !acc + Popcount.count data.(j)
  done;
  if off > 0 then acc := !acc + Popcount.count (data.(wi) land Popcount.low_mask off);
  !acc

(* Position of the k-th b-bit; requires k < #b-bits in the leaf. *)
let leaf_select l b k =
  let data = l.data in
  let res = ref (-1) and k = ref k and j = ref 0 in
  while !res < 0 do
    let valid = min w (l.llen - (!j * w)) in
    let word = data.(!j) in
    let c = if b = 1 then Popcount.count word else valid - Popcount.count word in
    if !k < c then begin
      let word' = if b = 1 then word else lnot word land Popcount.low_mask valid in
      res := (!j * w) + Popcount.select word' !k
    end
    else begin
      k := !k - c;
      incr j
    end
  done;
  !res

(* OR the first [slen] bits of [src] into [dst] starting at bit [doff].
   Bits >= doff of dst must be zero and the total must fit. *)
let blit_bits ~src ~slen ~dst ~doff =
  let sw = (slen + w - 1) / w in
  let base = doff / w and off = doff mod w in
  if off = 0 then Array.blit src 0 dst base sw
  else
    for j = 0 to sw - 1 do
      let x = src.(j) in
      dst.(base + j) <- dst.(base + j) lor ((x lsl off) land mask_w);
      let hi = x lsr (w - off) in
      if hi <> 0 then dst.(base + j + 1) <- dst.(base + j + 1) lor hi
    done

(* Fresh exact-fit array holding bits [from, from + n) of [src]. *)
let extract_bits ~src ~from ~n =
  let nw = max 1 ((n + w - 1) / w) in
  let dst = Array.make nw 0 in
  let base = from / w and off = from mod w in
  if off = 0 then Array.blit src base dst 0 (min nw (Array.length src - base))
  else
    for j = 0 to nw - 1 do
      let lo = src.(base + j) lsr off in
      let hi = if base + j + 1 < Array.length src then src.(base + j + 1) else 0 in
      dst.(j) <- (lo lor (hi lsl (w - off))) land mask_w
    done;
  let rem = n mod w in
  if rem > 0 then dst.(nw - 1) <- dst.(nw - 1) land Popcount.low_mask rem;
  dst

(* Split a full leaf in half (only called at llen = leaf_max, so the cut
   is word-aligned); the argument keeps the low half. *)
let leaf_split l =
  let hw = Array.length l.data / 2 in
  let rdata = Array.make (Array.length l.data - hw) 0 in
  Array.blit l.data hw rdata 0 (Array.length rdata);
  let ldata = Array.make hw 0 in
  Array.blit l.data 0 ldata 0 hw;
  let r = { llen = l.llen - (hw * w); data = rdata } in
  l.data <- ldata;
  l.llen <- hw * w;
  r

(* Append r into l (combined <= leaf_max). *)
let leaf_append l r =
  let total = l.llen + r.llen in
  let nd = Array.make (max 1 ((total + w - 1) / w)) 0 in
  Array.blit l.data 0 nd 0 (min (Array.length l.data) (Array.length nd));
  blit_bits ~src:r.data ~slen:r.llen ~dst:nd ~doff:l.llen;
  l.data <- nd;
  l.llen <- total

(* Redistribute into equal halves (combined > leaf_max). *)
let leaf_rebalance a b =
  let total = a.llen + b.llen in
  let tmp = Array.make ((total + w - 1) / w) 0 in
  Array.blit a.data 0 tmp 0 (min (Array.length a.data) (Array.length tmp));
  blit_bits ~src:b.data ~slen:b.llen ~dst:tmp ~doff:a.llen;
  let half = total / 2 in
  a.data <- extract_bits ~src:tmp ~from:0 ~n:half;
  a.llen <- half;
  b.data <- extract_bits ~src:tmp ~from:half ~n:(total - half);
  b.llen <- total - half

(* --- internal-node slot management --- *)

let mk_inode () =
  {
    nc = 0;
    ch = Array.make (fanout + 1) dummy;
    clen = Array.make (fanout + 1) 0;
    cones = Array.make (fanout + 1) 0;
  }

let inode_len nd =
  let acc = ref 0 in
  for i = 0 to nd.nc - 1 do
    acc := !acc + nd.clen.(i)
  done;
  !acc

let inode_ones nd =
  let acc = ref 0 in
  for i = 0 to nd.nc - 1 do
    acc := !acc + nd.cones.(i)
  done;
  !acc

let ins_child nd i child cl co =
  for j = nd.nc downto i + 1 do
    nd.ch.(j) <- nd.ch.(j - 1);
    nd.clen.(j) <- nd.clen.(j - 1);
    nd.cones.(j) <- nd.cones.(j - 1)
  done;
  nd.ch.(i) <- child;
  nd.clen.(i) <- cl;
  nd.cones.(i) <- co;
  nd.nc <- nd.nc + 1

let rm_child nd i =
  for j = i to nd.nc - 2 do
    nd.ch.(j) <- nd.ch.(j + 1);
    nd.clen.(j) <- nd.clen.(j + 1);
    nd.cones.(j) <- nd.cones.(j + 1)
  done;
  nd.nc <- nd.nc - 1;
  nd.ch.(nd.nc) <- dummy;
  nd.clen.(nd.nc) <- 0;
  nd.cones.(nd.nc) <- 0

(* Move the upper half of an overfull node (nc = fanout + 1) into a
   fresh right sibling. *)
let node_split nd =
  let right = mk_inode () in
  let keep = nd.nc / 2 in
  let moved = nd.nc - keep in
  for j = 0 to moved - 1 do
    right.ch.(j) <- nd.ch.(keep + j);
    right.clen.(j) <- nd.clen.(keep + j);
    right.cones.(j) <- nd.cones.(keep + j);
    nd.ch.(keep + j) <- dummy;
    nd.clen.(keep + j) <- 0;
    nd.cones.(keep + j) <- 0
  done;
  right.nc <- moved;
  nd.nc <- keep;
  right

(* --- descent --- *)

(* Returns [Some (sibling, len, ones)] when the child split. *)
let rec ins node pos b =
  match node with
  | L l ->
    if l.llen < leaf_max then begin
      leaf_insert l pos b;
      None
    end
    else begin
      let r = leaf_split l in
      if pos <= l.llen then leaf_insert l pos b else leaf_insert r (pos - l.llen) b;
      Some (L r, r.llen, leaf_ones r)
    end
  | N nd ->
    let i = ref 0 and p = ref pos in
    while !i < nd.nc - 1 && !p > nd.clen.(!i) do
      p := !p - nd.clen.(!i);
      incr i
    done;
    let i = !i in
    (match ins nd.ch.(i) !p b with
    | None ->
      nd.clen.(i) <- nd.clen.(i) + 1;
      nd.cones.(i) <- nd.cones.(i) + b
    | Some (r, rl, ro) ->
      nd.clen.(i) <- nd.clen.(i) + 1 - rl;
      nd.cones.(i) <- nd.cones.(i) + b - ro;
      ins_child nd (i + 1) r rl ro);
    if nd.nc > fanout then begin
      let right = node_split nd in
      Some (N right, inode_len right, inode_ones right)
    end
    else None

let underfull = function L l -> l.llen < leaf_min | N nd -> nd.nc < min_children

(* Re-establish the fill invariant for child [i] of [nd] by merging with
   or borrowing from an adjacent sibling.  All siblings share a
   constructor (uniform depth). *)
let fix_child nd i =
  let j = if i + 1 < nd.nc then i + 1 else i - 1 in
  let li = min i j and ri = max i j in
  (match (nd.ch.(li), nd.ch.(ri)) with
  | L a, L b ->
    if a.llen + b.llen <= leaf_max then begin
      leaf_append a b;
      nd.clen.(li) <- nd.clen.(li) + nd.clen.(ri);
      nd.cones.(li) <- nd.cones.(li) + nd.cones.(ri);
      rm_child nd ri
    end
    else begin
      let tl = nd.clen.(li) + nd.clen.(ri) and to_ = nd.cones.(li) + nd.cones.(ri) in
      leaf_rebalance a b;
      let ao = leaf_ones a in
      nd.clen.(li) <- a.llen;
      nd.cones.(li) <- ao;
      nd.clen.(ri) <- tl - a.llen;
      nd.cones.(ri) <- to_ - ao
    end
  | N a, N b ->
    if a.nc + b.nc <= fanout then begin
      for k = 0 to b.nc - 1 do
        a.ch.(a.nc + k) <- b.ch.(k);
        a.clen.(a.nc + k) <- b.clen.(k);
        a.cones.(a.nc + k) <- b.cones.(k)
      done;
      a.nc <- a.nc + b.nc;
      nd.clen.(li) <- nd.clen.(li) + nd.clen.(ri);
      nd.cones.(li) <- nd.cones.(li) + nd.cones.(ri);
      rm_child nd ri
    end
    else if a.nc < b.nc then begin
      (* borrow b's first child onto a's tail *)
      let c = b.ch.(0) and cl = b.clen.(0) and co = b.cones.(0) in
      rm_child b 0;
      a.ch.(a.nc) <- c;
      a.clen.(a.nc) <- cl;
      a.cones.(a.nc) <- co;
      a.nc <- a.nc + 1;
      nd.clen.(li) <- nd.clen.(li) + cl;
      nd.cones.(li) <- nd.cones.(li) + co;
      nd.clen.(ri) <- nd.clen.(ri) - cl;
      nd.cones.(ri) <- nd.cones.(ri) - co
    end
    else begin
      (* borrow a's last child onto b's head *)
      let k = a.nc - 1 in
      let c = a.ch.(k) and cl = a.clen.(k) and co = a.cones.(k) in
      a.ch.(k) <- dummy;
      a.clen.(k) <- 0;
      a.cones.(k) <- 0;
      a.nc <- k;
      ins_child b 0 c cl co;
      nd.clen.(li) <- nd.clen.(li) - cl;
      nd.cones.(li) <- nd.cones.(li) - co;
      nd.clen.(ri) <- nd.clen.(ri) + cl;
      nd.cones.(ri) <- nd.cones.(ri) + co
    end
  | _ -> assert false)

let rec del node pos =
  match node with
  | L l -> leaf_delete l pos
  | N nd ->
    let i = ref 0 and p = ref pos in
    while !i < nd.nc - 1 && !p >= nd.clen.(!i) do
      p := !p - nd.clen.(!i);
      incr i
    done;
    let i = !i in
    let b = del nd.ch.(i) !p in
    nd.clen.(i) <- nd.clen.(i) - 1;
    nd.cones.(i) <- nd.cones.(i) - b;
    if underfull nd.ch.(i) && nd.nc >= 2 then fix_child nd i;
    b

let rec get_bit node pos =
  match node with
  | L l -> leaf_get l pos
  | N nd ->
    let i = ref 0 and p = ref pos in
    while !i < nd.nc - 1 && !p >= nd.clen.(!i) do
      p := !p - nd.clen.(!i);
      incr i
    done;
    get_bit nd.ch.(!i) !p

let rec set_bit node pos b =
  match node with
  | L l ->
    let old = leaf_get l pos in
    leaf_set l pos b;
    old
  | N nd ->
    let i = ref 0 and p = ref pos in
    while !i < nd.nc - 1 && !p >= nd.clen.(!i) do
      p := !p - nd.clen.(!i);
      incr i
    done;
    let old = set_bit nd.ch.(!i) !p b in
    nd.cones.(!i) <- nd.cones.(!i) + b - old;
    old

let rec rank_bits node pos =
  match node with
  | L l -> leaf_rank1 l pos
  | N nd ->
    let i = ref 0 and p = ref pos and acc = ref 0 in
    while !i < nd.nc - 1 && !p > nd.clen.(!i) do
      acc := !acc + nd.cones.(!i);
      p := !p - nd.clen.(!i);
      incr i
    done;
    !acc + rank_bits nd.ch.(!i) !p

let rec select_bit node b k =
  match node with
  | L l -> leaf_select l b k
  | N nd ->
    let i = ref 0 and k = ref k and off = ref 0 in
    let count j = if b = 1 then nd.cones.(j) else nd.clen.(j) - nd.cones.(j) in
    while !i < nd.nc - 1 && !k >= count !i do
      k := !k - count !i;
      off := !off + nd.clen.(!i);
      incr i
    done;
    !off + select_bit nd.ch.(!i) b !k

let rec space_node = function
  | L l -> (Array.length l.data + 2) * w
  | N nd ->
    let acc = ref (((3 * (fanout + 1)) + 2) * w) in
    for i = 0 to nd.nc - 1 do
      acc := !acc + space_node nd.ch.(i)
    done;
    !acc

(* --- public API --- *)

let create () = { root = L (mk_leaf ()); tlen = 0; tones = 0 }
let len t = t.tlen
let ones t = t.tones
let zeros t = t.tlen - t.tones

let get t i =
  if i < 0 || i >= t.tlen then invalid_arg "Spsi.get";
  get_bit t.root i = 1

let set t i b =
  if i < 0 || i >= t.tlen then invalid_arg "Spsi.set";
  let b = if b then 1 else 0 in
  let old = set_bit t.root i b in
  t.tones <- t.tones + b - old

let insert t i b =
  if i < 0 || i > t.tlen then invalid_arg "Spsi.insert";
  let b = if b then 1 else 0 in
  (match ins t.root i b with
  | None -> ()
  | Some (r, rl, ro) ->
    let nd = mk_inode () in
    nd.ch.(0) <- t.root;
    nd.clen.(0) <- t.tlen + 1 - rl;
    nd.cones.(0) <- t.tones + b - ro;
    nd.ch.(1) <- r;
    nd.clen.(1) <- rl;
    nd.cones.(1) <- ro;
    nd.nc <- 2;
    t.root <- N nd);
  t.tlen <- t.tlen + 1;
  t.tones <- t.tones + b

let delete t i =
  if i < 0 || i >= t.tlen then invalid_arg "Spsi.delete";
  let b = del t.root i in
  t.tlen <- t.tlen - 1;
  t.tones <- t.tones - b;
  (* collapse single-child roots so the height tracks the size *)
  let rec collapse () =
    match t.root with
    | N nd when nd.nc = 1 ->
      t.root <- nd.ch.(0);
      collapse ()
    | _ -> ()
  in
  collapse ()

let rank1 t i =
  if i < 0 || i > t.tlen then invalid_arg "Spsi.rank1";
  rank_bits t.root i

let rank0 t i = i - rank1 t i

let select1 t k =
  if k < 0 || k >= t.tones then invalid_arg "Spsi.select1";
  select_bit t.root 1 k

let select0 t k =
  if k < 0 || k >= zeros t then invalid_arg "Spsi.select0";
  select_bit t.root 0 k

let push_back t b = insert t t.tlen b

let to_bools t = List.init t.tlen (fun i -> get t i)

let space_bits t = space_node t.root + (2 * w)
