(* Versioned, CRC-checked binary container; format documented in
   codec.mli and DESIGN.md section 10. *)

module Di = Dsdg_core.Dynamic_index

exception Corrupt of { file : string; section : string; reason : string }

let corrupt_message ~file ~section ~reason = Printf.sprintf "%s: section %s: %s" file section reason

let () =
  Printexc.register_printer (function
    | Corrupt { file; section; reason } ->
      Some ("Codec.Corrupt: " ^ corrupt_message ~file ~section ~reason)
    | _ -> None)

(* 2: flat snapshots (one "docs" section); 1: per-component sections
   with deletion bits, still read *)
let format_version = 2
let magic = "DSDG"

(* CRC-32, IEEE 802.3 polynomial (reflected 0xEDB88320), sliced by 4:
   table k (entries 256k .. 256k + 255) advances a byte through k more
   zero bytes, so one step folds in four bytes with four independent
   lookups.  Pure OCaml on 63-bit ints; the result is always in
   [0, 2^32).  The tables are built at module initialisation, not
   lazily: shard stores recover on parallel domains, and two domains
   forcing one lazy value at once raise [CamlinternalLazy.Undefined]. *)
let crc_table =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 1023 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

let crc32 s =
  let t = crc_table and n = String.length s in
  let c = ref 0xFFFFFFFF and i = ref 0 in
  while !i + 4 <= n do
    let x = !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) in
    c :=
      t.(768 + (x land 0xFF))
      lxor t.(512 + ((x lsr 8) land 0xFF))
      lxor t.(256 + ((x lsr 16) land 0xFF))
      lxor t.(x lsr 24);
    i := !i + 4
  done;
  while !i < n do
    c := t.((!c lxor Char.code s.[!i]) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

(* --- primitive encoders --- *)

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))
  let int b v = Buffer.add_int64_le b (Int64.of_int v)

  let string b s =
    Buffer.add_int32_le b (Int32.of_int (String.length s));
    Buffer.add_string b s

  let bool_array b (a : bool array) =
    let n = Array.length a in
    Buffer.add_int32_le b (Int32.of_int n);
    let byte = ref 0 in
    for i = 0 to n - 1 do
      if a.(i) then byte := !byte lor (1 lsl (i land 7));
      if i land 7 = 7 then begin
        Buffer.add_char b (Char.chr !byte);
        byte := 0
      end
    done;
    if n land 7 <> 0 then Buffer.add_char b (Char.chr !byte)

  let contents = Buffer.contents
end

module R = struct
  type t = { file : string; section : string; data : string; mutable pos : int }

  let of_string ~file ~section data = { file; section; data; pos = 0 }
  let fail t reason = raise (Corrupt { file = t.file; section = t.section; reason })

  let need t n =
    if t.pos + n > String.length t.data then
      fail t
        (Printf.sprintf "payload truncated: need %d byte(s) at offset %d of %d" n t.pos
           (String.length t.data))

  let u8 t =
    need t 1;
    let v = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u32 t =
    need t 4;
    let v = Int32.to_int (String.get_int32_le t.data t.pos) land 0xFFFFFFFF in
    t.pos <- t.pos + 4;
    v

  let int t =
    need t 8;
    let v = Int64.to_int (String.get_int64_le t.data t.pos) in
    t.pos <- t.pos + 8;
    v

  let string t =
    let n = u32 t in
    need t n;
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let bool_array t =
    let n = u32 t in
    let bytes = (n + 7) / 8 in
    need t bytes;
    let a =
      Array.init n (fun i -> Char.code t.data.[t.pos + (i lsr 3)] land (1 lsl (i land 7)) <> 0)
    in
    t.pos <- t.pos + bytes;
    a

  let at_end t = t.pos = String.length t.data
end

(* --- container files --- *)

(* File layout: magic, u8 format version, kind string, u32 section
   count, then per section: name string, u32 payload length, payload,
   u32 CRC-32 of the payload. *)
let encode_container ~kind sections =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr format_version);
  Buffer.add_int32_le b (Int32.of_int (String.length kind));
  Buffer.add_string b kind;
  Buffer.add_int32_le b (Int32.of_int (List.length sections));
  List.iter
    (fun (name, payload) ->
      Buffer.add_int32_le b (Int32.of_int (String.length name));
      Buffer.add_string b name;
      Buffer.add_int32_le b (Int32.of_int (String.length payload));
      Buffer.add_string b payload;
      Buffer.add_int32_le b (Int32.of_int (crc32 payload)))
    sections;
  Buffer.contents b

(* Atomic install: temporary file in the same directory, fsync, rename
   into place, fsync the directory so the rename itself is durable.  A
   crash at any point leaves either the old file or the new one. *)
let write_file ~path ~kind sections =
  let data = encode_container ~kind sections in
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = String.length data in
      let written = ref 0 in
      while !written < n do
        written := !written + Unix.write_substring fd data !written (n - !written)
      done;
      Unix.fsync fd);
  Unix.rename tmp path;
  (try
     let dfd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
     Fun.protect ~finally:(fun () -> Unix.close dfd) (fun () -> Unix.fsync dfd)
   with Unix.Unix_error _ -> ())

let read_file ~path ~kind =
  let ic = open_in_bin path in
  let data =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic)
  in
  let r = R.of_string ~file:path ~section:"header" data in
  let m = try String.init 4 (fun _ -> Char.chr (R.u8 r)) with Corrupt _ -> "" in
  if m <> magic then R.fail r (Printf.sprintf "bad magic %S (want %S)" m magic);
  let version = R.u8 r in
  if version > format_version then
    R.fail r (Printf.sprintf "format version %d is newer than this reader (max %d)" version format_version);
  let k = R.string r in
  if k <> kind then R.fail r (Printf.sprintf "file kind is %S, expected %S" k kind);
  let nsections = R.u32 r in
  let sections = ref [] in
  for _ = 1 to nsections do
    let name = R.string r in
    let payload = R.string r in
    let stored = R.u32 r in
    let actual = crc32 payload in
    if stored <> actual then
      raise
        (Corrupt
           {
             file = path;
             section = name;
             reason = Printf.sprintf "checksum mismatch: stored %08x, computed %08x" stored actual;
           });
    sections := (name, payload) :: !sections
  done;
  if not (R.at_end r) then R.fail r "trailing bytes after the last section";
  (version, List.rev !sections)

(* --- index snapshots --- *)

let variant_tag = function Di.Amortized -> 0 | Di.Amortized_loglog -> 1 | Di.Worst_case -> 2
let backend_tag = function Di.Fm -> 0 | Di.Plain_sa -> 1 | Di.Csa -> 2

let encode_dump (d : Di.dump) =
  let meta = W.create () in
  W.u8 meta (variant_tag d.Di.dm_variant);
  W.u8 meta (backend_tag d.Di.dm_backend);
  W.int meta d.Di.dm_sample;
  W.int meta d.Di.dm_tau;
  W.int meta d.Di.dm_epoch;
  W.int meta d.Di.dm_next_id;
  let docs = W.create () in
  W.int docs (Array.length d.Di.dm_docs);
  Array.iter
    (fun (id, text) ->
      W.int docs id;
      W.string docs text)
    d.Di.dm_docs;
  [ ("meta", W.contents meta); ("docs", W.contents docs) ]

let section ~file sections name =
  match List.assoc_opt name sections with
  | Some p -> R.of_string ~file ~section:name p
  | None -> raise (Corrupt { file; section = name; reason = "section missing" })

(* [n] (id, text) records; explicit loops here and below:
   [Array.init]/[List.init] leave the evaluation order of the generator
   unspecified, and the reader is stateful *)
let read_docs r =
  let n = R.int r in
  if n < 0 then R.fail r (Printf.sprintf "negative document count %d" n);
  let docs = Array.make n (0, "") in
  for i = 0 to n - 1 do
    let id = R.int r in
    let text = R.string r in
    docs.(i) <- (id, text)
  done;
  docs

(* A flat dump's ids ascend strictly ([Dynamic_index.fold_tail] relies
   on it). *)
let read_flat_docs r =
  let docs = read_docs r in
  Array.iteri
    (fun i (id, _) ->
      if i > 0 && id <= fst docs.(i - 1) then
        R.fail r (Printf.sprintf "document ids not ascending at %d" i))
    docs;
  docs

(* A version-1 snapshot's tail of "meta" (nf, cleaning counter, the
   component manifest) and its "c:<name>" sections (resident documents
   plus deletion bits), flattened to the live documents in id order;
   a document two components hold (a locked copy and its staging area)
   counts once. *)
let v1_live_docs ~file sections r =
  ignore (R.int r);
  ignore (R.int r);
  let ncomp = R.int r in
  if ncomp < 0 || ncomp > 1_000_000 then R.fail r (Printf.sprintf "absurd component count %d" ncomp);
  let live = Hashtbl.create 1024 in
  for _ = 1 to ncomp do
    let cr = section ~file sections ("c:" ^ R.string r) in
    let docs = read_docs cr in
    let dead = R.bool_array cr in
    if Array.length dead <> 0 && Array.length dead <> Array.length docs then
      R.fail cr
        (Printf.sprintf "deletion bit vector length %d does not match %d document(s)"
           (Array.length dead) (Array.length docs));
    Array.iteri
      (fun i (id, text) ->
        if (Array.length dead = 0 || not dead.(i)) && not (Hashtbl.mem live id) then
          Hashtbl.replace live id text)
      docs
  done;
  let docs = Array.of_seq (Hashtbl.to_seq live) in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) docs;
  docs

let decode_dump ~file ~version sections =
  let r = section ~file sections "meta" in
  let variant =
    match R.u8 r with
    | 0 -> Di.Amortized
    | 1 -> Di.Amortized_loglog
    | 2 -> Di.Worst_case
    | n -> R.fail r (Printf.sprintf "unknown variant tag %d" n)
  in
  let backend =
    match R.u8 r with
    | 0 -> Di.Fm
    | 1 -> Di.Plain_sa
    | 2 -> Di.Csa
    | n -> R.fail r (Printf.sprintf "unknown backend tag %d" n)
  in
  let sample = R.int r in
  let tau = R.int r in
  let epoch = R.int r in
  let next_id = R.int r in
  let docs =
    if version >= 2 then read_flat_docs (section ~file sections "docs")
    else v1_live_docs ~file sections r
  in
  {
    Di.dm_variant = variant;
    dm_backend = backend;
    dm_sample = sample;
    dm_tau = tau;
    dm_epoch = epoch;
    dm_next_id = next_id;
    dm_docs = docs;
  }

(* --- relations and graphs --- *)

let write_relation path (pairs : (int * int) list) =
  let b = W.create () in
  W.int b (List.length pairs);
  List.iter
    (fun (o, a) ->
      W.int b o;
      W.int b a)
    pairs;
  write_file ~path ~kind:"relation" [ ("pairs", W.contents b) ]

let read_relation path =
  let r = section ~file:path (snd (read_file ~path ~kind:"relation")) "pairs" in
  let n = R.int r in
  if n < 0 then R.fail r (Printf.sprintf "negative pair count %d" n);
  let pairs = ref [] in
  for _ = 1 to n do
    let o = R.int r in
    let a = R.int r in
    pairs := (o, a) :: !pairs
  done;
  List.rev !pairs
