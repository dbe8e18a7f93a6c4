(* Fm_index packaged as a Static_index.S: the compressed (nHk-style)
   static index plugged into the Transformations (the role of the
   Belazzougui-Navarro / Barbay et al. indexes in Section 4). *)

open Dsdg_fm

type t = Fm_index.t

let name = "fm"
let build = Fm_index.build
let doc_count = Fm_index.doc_count
let doc_len = Fm_index.doc_len
let total_len = Fm_index.total_len
let row_count = Fm_index.row_count
let range = Fm_index.range
let locate = Fm_index.locate
let extract = Fm_index.extract
let docs = Fm_index.docs
let iter_doc_rows = Fm_index.iter_doc_rows
let space_bits = Fm_index.space_bits
