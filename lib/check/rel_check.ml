(* Differential checking for the dynamic relation: drive one Dyn_binrel
   with a stream of relation operations, cross-check every answer
   against the naive Model.Rel, and delta-debug failing streams down to
   minimal replayable traces with the same stream driver (Runner.drive)
   as the document fuzzer. *)

open Dsdg_binrel

(* --- relation operations and their line format --- *)

type rop =
  | Radd of int * int
  | Rremove of int * int
  | Rrelated of int * int
  | Rsucc of int (* labels_of_object: list + count *)
  | Rpred of int (* objects_of_label: list + count *)
  | Rpairs (* full pair-set snapshot comparison *)

let rop_to_string = function
  | Radd (o, a) -> Printf.sprintf "> %d %d" o a
  | Rremove (o, a) -> Printf.sprintf "< %d %d" o a
  | Rrelated (o, a) -> Printf.sprintf "~ %d %d" o a
  | Rsucc o -> Printf.sprintf "$ %d" o
  | Rpred a -> Printf.sprintf "^ %d" a
  | Rpairs -> "*"

let parse_rop line : (rop, string) result =
  let scan fmt k ~expect =
    try Ok (Scanf.sscanf line fmt k)
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> Error expect
  in
  if line = "" then Error "empty record"
  else
    match line.[0] with
    | '>' -> scan "> %d %d" (fun o a -> Radd (o, a)) ~expect:"expected 'o a' integers after '>'"
    | '<' -> scan "< %d %d" (fun o a -> Rremove (o, a)) ~expect:"expected 'o a' integers after '<'"
    | '~' -> scan "~ %d %d" (fun o a -> Rrelated (o, a)) ~expect:"expected 'o a' integers after '~'"
    | '$' -> scan "$ %d" (fun o -> Rsucc o) ~expect:"expected an object id after '$'"
    | '^' -> scan "^ %d" (fun a -> Rpred a) ~expect:"expected a label id after '^'"
    | '*' -> if line = "*" then Ok Rpairs else Error "expected the bare snapshot record \"*\""
    | c -> Error (Printf.sprintf "unknown relation opcode %C" c)

let rop_of_string line =
  match parse_rop line with
  | Ok op -> op
  | Error reason -> invalid_arg (Printf.sprintf "Rel_check.rop_of_string: %S (%s)" line reason)

(* --- planted faults --- *)

(* A deliberate defect in the harness's application of ops, so the
   checker can prove it catches, shrinks and replays real divergences
   (the relation-side analogue of Index_config.fault): [Lost_remove]
   silently drops removes of pairs with [(o + a) mod 3 = 0] from the
   structures under test while the model still applies them.  The
   predicate depends only on the op payload, never on stream position,
   so shrunk traces keep failing. *)
type fault = Lost_remove

let fault_to_string = function Lost_remove -> "rel-lost-remove"
let fault_of_string = function "rel-lost-remove" -> Some Lost_remove | _ -> None

(* --- differential run --- *)

let subject = "dyn_binrel"

let run_ops ?fault ?(init = []) (ops : rop list) : (unit, rop Runner.failure) result =
  let model = Model.Rel.create () in
  List.iter (fun (o, a) -> ignore (Model.Rel.add model o a)) init;
  let r = Dyn_binrel.of_pairs ~tau:4 init in
  let exception Diverged of rop Runner.failure in
  let apply step op =
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          raise
            (Diverged
               { Runner.f_step = step; f_target = subject; f_subject = 0; f_op = op;
                 f_message = m; f_events = [] }))
        fmt
    in
    let ints l = String.concat ";" (List.map string_of_int l) in
    let bool what want got = if got <> want then fail "%s: model %b vs %b" what want got in
    let int what want got = if got <> want then fail "%s: model %d vs %d" what want got in
    let list what want got =
      if got <> want then fail "%s: model [%s] vs %s [%s]" what (ints want) subject (ints got)
    in
    (match op with
    | Radd (o, a) ->
      bool (Printf.sprintf "add %d %d" o a) (Model.Rel.add model o a) (Dyn_binrel.add r o a)
    | Rremove (o, a) ->
      let want = Model.Rel.remove model o a in
      let dropped = fault = Some Lost_remove && (o + a) mod 3 = 0 in
      bool (Printf.sprintf "remove %d %d" o a) want
        (if dropped then false else Dyn_binrel.remove r o a)
    | Rrelated (o, a) ->
      bool (Printf.sprintf "related %d %d" o a) (Model.Rel.related model o a)
        (Dyn_binrel.related r o a)
    | Rsucc o ->
      let want = Model.Rel.labels_of_object model o in
      list (Printf.sprintf "labels_of_object %d" o) want (Dyn_binrel.labels_of_object_list r o);
      int (Printf.sprintf "count_labels_of_object %d" o) (List.length want)
        (Dyn_binrel.count_labels_of_object r o)
    | Rpred a ->
      let want = Model.Rel.objects_of_label model a in
      list (Printf.sprintf "objects_of_label %d" a) want (Dyn_binrel.objects_of_label_list r a);
      int (Printf.sprintf "count_objects_of_label %d" a) (List.length want)
        (Dyn_binrel.count_objects_of_label r a)
    | Rpairs ->
      let want = Model.Rel.pairs model in
      let got = Dyn_binrel.pairs_list r in
      if got <> want then
        fail "pair-set snapshot: model %d pairs vs %s %d pairs%s" (List.length want) subject
          (List.length got)
          (match List.find_opt (fun p -> not (List.mem p got)) want with
          | Some (o, a) -> Printf.sprintf " (first missing: %d,%d)" o a
          | None -> ""));
    (* live-pair census after every op: cheap and catches drift early *)
    int "live_pairs" (Model.Rel.size model) (Dyn_binrel.live_pairs r)
  in
  try
    List.iteri (fun i op -> apply (i + 1) op) ops;
    Ok ()
  with Diverged f -> Error f

(* --- stream generation --- *)

(* Bounded universe with occasional far-out ids, so the relation's
   static structures see a spread alphabet: some past 600, a few
   negative, a few near +-2^40 (where the construction's radix sort
   must order keys across its whole int range); weighted toward updates
   with queries and snapshots interleaved. *)
let gen_ops ~seed ~ops =
  let st = Random.State.make [| seed; 0xbe1 |] in
  let id () =
    match Random.State.int st 80 with
    | 0 -> -1 - Random.State.int st 24
    | 1 -> (if Random.State.bool st then 1 else -1) * ((1 lsl 40) + Random.State.int st 4)
    | 2 | 3 -> Random.State.int st 600
    | _ -> Random.State.int st 24
  in
  List.init ops (fun _ ->
      match Random.State.int st 100 with
      | n when n < 40 -> Radd (id (), id ())
      | n when n < 65 -> Rremove (id (), id ())
      | n when n < 80 -> Rrelated (id (), id ())
      | n when n < 88 -> Rsucc (id ())
      | n when n < 96 -> Rpred (id ())
      | _ -> Rpairs)

(* --- shrinking through the shared stream driver --- *)

(* Relation ops carry no payload worth halving: chunk removal does the
   work. *)
let check ?fault trace =
  Runner.drive ~run:(fun _ ops -> run_ops ?fault ops) ~simplify:(fun _ -> None) [ () ] trace

let run_stream ?fault ~seed ~ops () = check ?fault (gen_ops ~seed ~ops)

(* --- persistence (same header convention as Trace) --- *)

let save ?fault path ops =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "% requires rel=str\n";
      (match fault with
      | Some f -> output_string oc (Printf.sprintf "%% fault %s\n" (fault_to_string f))
      | None -> ());
      List.iter (fun op -> output_string oc (rop_to_string op ^ "\n")) ops)

(* Relation traces reuse Trace's hint header, so [Trace.load_hint]
   reads the [rel=] marker back. *)
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
             match parse_rop line with
             | Ok op -> ops := op :: !ops
             | Error reason ->
               raise
                 (Trace.Parse_error
                    { Trace.pe_line = !lineno; pe_text = line; pe_reason = reason })
         done
       with End_of_file -> ());
      List.rev !ops)
