(* Subjects under differential test; see subject.mli. *)

module Di = Dsdg_core.Dynamic_index

type t = {
  name : string;
  insert : string -> int;
  delete : int -> bool;
  search : string -> (int * int) list;
  count : string -> int;
  extract : doc:int -> off:int -> len:int -> string option;
  mem : int -> bool;
  drain : unit -> unit;
  doc_count : unit -> int;
  total_symbols : unit -> int;
  check : unit -> string list;
  events : unit -> string list;
  close : unit -> unit;
}

let of_index ~name idx =
  let pooled = Di.readers idx > 0 in
  let q direct on_view = if pooled then Di.query idx on_view else direct () in
  let oracle = Oracle.create () in
  let census () =
    if not pooled then []
    else
      (* the published view must agree with the write plane the moment
         the writer is quiescent *)
      let vdc, vts = Di.query idx (fun v -> (Di.view_doc_count v, Di.view_total_symbols v)) in
      let dc = Di.doc_count idx and ts = Di.total_symbols idx in
      (if vdc <> dc then [ Printf.sprintf "view doc_count %d, write plane %d" vdc dc ] else [])
      @ if vts <> ts then [ Printf.sprintf "view total_symbols %d, write plane %d" vts ts ] else []
  in
  {
    name;
    insert = Di.insert idx;
    delete = Di.delete idx;
    search = (fun p -> q (fun () -> Di.search idx p) (fun v -> Di.view_search v p));
    count = (fun p -> q (fun () -> Di.count idx p) (fun v -> Di.view_count v p));
    extract =
      (fun ~doc ~off ~len ->
        q (fun () -> Di.extract idx ~doc ~off ~len) (fun v -> Di.view_extract v ~doc ~off ~len));
    mem = (fun id -> q (fun () -> Di.mem idx id) (fun v -> Di.view_mem v id));
    drain = (fun () -> Di.drain idx);
    doc_count = (fun () -> Di.doc_count idx);
    total_symbols = (fun () -> Di.total_symbols idx);
    check =
      (fun () ->
        census ()
        @
        match Oracle.check oracle idx with
        | [] -> []
        | broken -> [ "invariant violation: " ^ String.concat " | " broken ]);
    events = (fun () -> Di.events idx);
    close = (fun () -> Di.close idx);
  }
