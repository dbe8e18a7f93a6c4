(* The collection record every front end drives; see subject.mli. *)

module Di = Dsdg_core.Dynamic_index

type batch_result = Br_inserted of int | Br_deleted of bool

type repl_reply =
  | Rp_recs of { recs : (int * string) list; bound : int; epoch : int }
  | Rp_snapshot of { path : string; serial : int; bound : int; epoch : int }
  | Rp_error of string

type t = {
  name : string;
  apply_batch : Trace.op list -> batch_result list;
  search : string -> (int * int) list;
  count : string -> int;
  extract : doc:int -> off:int -> len:int -> string option;
  mem : int -> bool;
  drain : unit -> unit;
  doc_count : unit -> int;
  total_symbols : unit -> int;
  stats : unit -> (string * int) list;
  repl : stream:string -> from:int -> repl_reply;
  flush : unit -> unit;
  check : unit -> string list;
  events : unit -> string list;
  checkpoint : unit -> unit;
  close : unit -> unit;
  kill : torn:bool -> unit;
}

let insert s text =
  match s.apply_batch [ Trace.Insert text ] with
  | [ Br_inserted id ] -> id
  | _ -> failwith (s.name ^ ": insert did not report an id")

let delete s id =
  match s.apply_batch [ Trace.Delete id ] with
  | [ Br_deleted ok ] -> ok
  | _ -> failwith (s.name ^ ": delete did not report an outcome")

let of_index ~name idx =
  let oracle = Oracle.create () in
  (* the published view must agree with the write plane the moment the
     writer is quiescent *)
  let census () =
    let vdc, vts = Di.query idx (fun v -> (Di.view_doc_count v, Di.view_total_symbols v)) in
    let dc = Di.doc_count idx and ts = Di.total_symbols idx in
    (if vdc <> dc then [ Printf.sprintf "view doc_count %d, write plane %d" vdc dc ] else [])
    @ if vts <> ts then [ Printf.sprintf "view total_symbols %d, write plane %d" vts ts ] else []
  in
  {
    name;
    apply_batch =
      List.map (function
        | Trace.Insert text -> Br_inserted (Di.insert idx text)
        | Trace.Delete id -> Br_deleted (Di.delete idx id)
        | op -> invalid_arg (Printf.sprintf "%S is not a mutation" (Trace.op_to_string op)));
    search = (fun p -> Di.query idx (fun v -> Di.view_search v p));
    count = (fun p -> Di.query idx (fun v -> Di.view_count v p));
    extract = (fun ~doc ~off ~len -> Di.query idx (fun v -> Di.view_extract v ~doc ~off ~len));
    mem = (fun id -> Di.query idx (fun v -> Di.view_mem v id));
    drain = (fun () -> Di.drain idx);
    doc_count = (fun () -> Di.doc_count idx);
    total_symbols = (fun () -> Di.total_symbols idx);
    stats =
      (fun () ->
        let v = Di.view idx in
        [
          ("docs", Di.view_doc_count v);
          ("symbols", Di.view_total_symbols v);
          ("epoch", Di.view_epoch v);
        ]);
    repl = (fun ~stream:_ ~from:_ -> Rp_error "an in-memory index has no replication streams");
    flush = ignore;
    check =
      (fun () ->
        census ()
        @
        match Oracle.check oracle idx with
        | [] -> []
        | broken -> [ "invariant violation: " ^ String.concat " | " broken ]);
    events = (fun () -> Di.events idx);
    checkpoint = ignore;
    close = (fun () -> Di.close idx);
    kill = (fun ~torn:_ -> Di.close idx);
  }
