(* Replayable operation traces; format documented in trace.mli. *)

type op =
  | Insert of string
  | Delete of int
  | Search of string
  | Count of string
  | Extract of { doc : int; off : int; len : int }
  | Mem of int
  | Drain

type parse_error = { pe_line : int; pe_text : string; pe_reason : string }

exception Parse_error of parse_error

let parse_error_message ?file e =
  Printf.sprintf "%sline %d: %s (offending record: %S)"
    (match file with None -> "" | Some f -> f ^ ":")
    e.pe_line e.pe_reason e.pe_text

let () =
  Printexc.register_printer (function
    | Parse_error e -> Some ("Trace.Parse_error: " ^ parse_error_message e)
    | _ -> None)

let op_to_string = function
  | Insert text -> Printf.sprintf "+ %S" text
  | Delete id -> Printf.sprintf "- %d" id
  | Search p -> Printf.sprintf "? %S" p
  | Count p -> Printf.sprintf "# %S" p
  | Extract { doc; off; len } -> Printf.sprintf "= %d %d %d" doc off len
  | Mem id -> Printf.sprintf "@ %d" id
  | Drain -> "!!"

(* One line -> op, with a field-level reason on failure.  The reasons
   name the field that failed to scan so that located errors (WAL
   recovery, --replay) can say *what* is corrupt, not just where. *)
let parse_op line : (op, string) result =
  let scan fmt k ~expect =
    try Ok (Scanf.sscanf line fmt k)
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> Error expect
  in
  if String.length line < 2 then Error "record shorter than an opcode + argument"
  else
    match line.[0] with
    | '+' -> scan "+ %S" (fun s -> Insert s) ~expect:"expected a quoted document after '+'"
    | '-' -> scan "- %d" (fun id -> Delete id) ~expect:"expected a document id after '-'"
    | '?' -> scan "? %S" (fun p -> Search p) ~expect:"expected a quoted pattern after '?'"
    | '#' -> scan "# %S" (fun p -> Count p) ~expect:"expected a quoted pattern after '#'"
    | '=' ->
      scan "= %d %d %d"
        (fun doc off len -> Extract { doc; off; len })
        ~expect:"expected 'doc off len' integers after '='"
    | '@' -> scan "@ %d" (fun id -> Mem id) ~expect:"expected a document id after '@'"
    | '!' -> if line = "!!" then Ok Drain else Error "expected the bare drain record \"!!\""
    | c -> Error (Printf.sprintf "unknown opcode %C" c)

let op_of_string line =
  match parse_op line with
  | Ok op -> op
  | Error reason ->
    invalid_arg (Printf.sprintf "Trace.op_of_string: %S (%s)" line reason)

let render ops =
  let buf = Buffer.create 256 in
  List.iteri (fun i op -> Buffer.add_string buf (Printf.sprintf "%4d  %s\n" (i + 1) (op_to_string op))) ops;
  Buffer.contents buf

(* Replay hints ride in '%'-comment headers: old traces (no header)
   and old readers (comments skipped) both keep working. *)
type hint = { h_shards : int option; h_rel : bool; h_index : (string * string) list }

let no_hint = { h_shards = None; h_rel = false; h_index = [] }

(* A relation trace is marked [rel=str], the string relation it ran
   against; readers check only that the key is there, so traces written
   with an older backend value ([rel=k2], [rel=both]) replay bare. *)
let hint_line hint =
  let opt name = function None -> [] | Some v -> [ (name, v) ] in
  match
    opt "shards" (Option.map string_of_int hint.h_shards)
    @ hint.h_index
    @ if hint.h_rel then [ ("rel", "str") ] else []
  with
  | [] -> None
  | fields ->
    Some ("% requires " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fields))

let parse_hint_line line =
  (* "% requires shards=2 readers=1 ..." -- every field but shards= and
     rel= belongs to the index config, which ignores keys it does not
     know, so future hints stay forward compatible *)
  match String.split_on_char ' ' (String.trim line) with
  | "%" :: "requires" :: fields ->
    let pairs =
      List.filter_map
        (fun f ->
          match String.split_on_char '=' f with [ k; v ] when v <> "" -> Some (k, v) | _ -> None)
        fields
    in
    let h_index = List.filter (fun (k, _) -> k <> "shards" && k <> "rel") pairs in
    Some
      (match List.assoc_opt "shards" pairs with
      | Some v when int_of_string_opt v = None -> Error ("shards=" ^ v)
      | shards ->
        Ok { h_shards = Option.map int_of_string shards; h_rel = List.mem_assoc "rel" pairs; h_index })
  | _ -> None

let save ?(hint = no_hint) path ops =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (match hint_line hint with Some l -> output_string oc (l ^ "\n") | None -> ());
      List.iter (fun op -> output_string oc (op_to_string op ^ "\n")) ops)

let load_hint path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Ok no_hint
        | line -> (
          let line = String.trim line in
          if line = "" then scan ()
          else
            match parse_hint_line line with
            | Some h -> h
            | None -> if line.[0] = '%' then scan () else Ok no_hint)
      in
      scan ())

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let ops = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let line = String.trim (input_line ic) in
           incr lineno;
           if line <> "" && line.[0] <> '%' then
             match parse_op line with
             | Ok op -> ops := op :: !ops
             | Error reason ->
               raise (Parse_error { pe_line = !lineno; pe_text = line; pe_reason = reason })
         done
       with End_of_file -> ());
      List.rev !ops)
