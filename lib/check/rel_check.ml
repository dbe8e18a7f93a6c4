(* Differential checking for the relation backends: fan one stream of
   relation operations over the Rel_backend matrix (str, k2, or both),
   cross-check every answer against the naive Model.Rel, and
   delta-debug failing streams down to minimal replayable traces with
   the same stream driver (Runner.drive) as the document fuzzer. *)

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

(* --- backend selection --- *)

type spec = One of Rel_backend.kind | Both

let spec_to_string = function One k -> Rel_backend.kind_to_string k | Both -> "both"

let spec_of_string = function
  | "both" | "all" -> Some Both
  | s -> Option.map (fun k -> One k) (Rel_backend.kind_of_string s)

let kinds_of_spec = function One k -> [ k ] | Both -> Rel_backend.all_kinds

(* --- planted faults --- *)

(* A deliberate defect in the harness's application of ops, so the
   checker can prove it catches, shrinks and replays real divergences
   (the relation-side analogue of Transform2.fault): [Lost_remove]
   silently drops removes of pairs with [(o + a) mod 3 = 0] from the
   structures under test while the model still applies them.  The
   predicate depends only on the op payload, never on stream position,
   so shrunk traces keep failing. *)
type fault = Lost_remove

let fault_to_string = function Lost_remove -> "rel-lost-remove"
let fault_of_string = function "rel-lost-remove" -> Some Lost_remove | _ -> None

(* --- differential run --- *)

let run_ops ?fault ?(init = []) kinds (ops : rop list) : (unit, rop Runner.failure) result =
  let model = Model.Rel.create () in
  List.iter (fun (o, a) -> ignore (Model.Rel.add model o a)) init;
  let rels =
    List.mapi
      (fun i k -> ((i, Rel_backend.kind_to_string k), Rel_backend.of_pairs ~tau:4 k init))
      kinds
  in
  let exception Diverged of rop Runner.failure in
  let fail step (i, name) op fmt =
    Printf.ksprintf
      (fun m ->
        raise
          (Diverged
             { Runner.f_step = step; f_target = name; f_subject = i; f_op = op; f_message = m;
               f_events = [] }))
      fmt
  in
  let check_list step who op what expected got =
    if expected <> got then
      fail step who op "%s: model [%s] vs %s [%s]" what
        (String.concat ";" (List.map string_of_int expected))
        (snd who)
        (String.concat ";" (List.map string_of_int got))
  in
  try
    List.iteri
      (fun i op ->
        let step = i + 1 in
        (match op with
        | Radd (o, a) ->
          let want = Model.Rel.add model o a in
          List.iter
            (fun (who, r) ->
              let got = Rel_backend.add r o a in
              if got <> want then fail step who op "add %d %d: model %b vs %b" o a want got)
            rels
        | Rremove (o, a) ->
          let want = Model.Rel.remove model o a in
          let dropped = fault = Some Lost_remove && (o + a) mod 3 = 0 in
          List.iter
            (fun (who, r) ->
              let got = if dropped then false else Rel_backend.remove r o a in
              if got <> want then fail step who op "remove %d %d: model %b vs %b" o a want got)
            rels
        | Rrelated (o, a) ->
          let want = Model.Rel.related model o a in
          List.iter
            (fun (who, r) ->
              let got = Rel_backend.related r o a in
              if got <> want then fail step who op "related %d %d: model %b vs %b" o a want got)
            rels
        | Rsucc o ->
          let want = Model.Rel.labels_of_object model o in
          List.iter
            (fun (who, r) ->
              check_list step who op
                (Printf.sprintf "labels_of_object %d" o)
                want
                (Rel_backend.labels_of_object_list r o);
              let c = Rel_backend.count_labels_of_object r o in
              if c <> List.length want then
                fail step who op "count_labels_of_object %d: model %d vs %d" o
                  (List.length want) c)
            rels
        | Rpred a ->
          let want = Model.Rel.objects_of_label model a in
          List.iter
            (fun (who, r) ->
              check_list step who op
                (Printf.sprintf "objects_of_label %d" a)
                want
                (Rel_backend.objects_of_label_list r a);
              let c = Rel_backend.count_objects_of_label r a in
              if c <> List.length want then
                fail step who op "count_objects_of_label %d: model %d vs %d" a
                  (List.length want) c)
            rels
        | Rpairs ->
          let want = Model.Rel.pairs model in
          List.iter
            (fun (who, r) ->
              let got = Rel_backend.pairs_list r in
              if got <> want then
                fail step who op "pair-set snapshot: model %d pairs vs %s %d pairs%s"
                  (List.length want) (snd who) (List.length got)
                  (match
                     List.find_opt (fun p -> not (List.mem p got)) want
                   with
                  | Some (o, a) -> Printf.sprintf " (first missing: %d,%d)" o a
                  | None -> ""))
            rels);
        (* live-pair census after every op: cheap and catches drift early *)
        let want = Model.Rel.size model in
        List.iter
          (fun (who, r) ->
            let got = Rel_backend.live_pairs r in
            if got <> want then fail step who op "live_pairs: model %d vs %d" want got)
          rels)
      ops;
    Ok ()
  with Diverged f -> Error f

(* --- stream generation --- *)

(* Bounded universe with occasional far-out ids, so k2 exercises its
   matrix-growth path and str its alphabet spread; weighted toward
   updates with queries and snapshots interleaved. *)
let gen_ops ~seed ~ops =
  let st = Random.State.make [| seed; 0xbe1 |] in
  let id () =
    if Random.State.int st 40 = 0 then Random.State.int st 600 else Random.State.int st 24
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
let check ?fault kinds trace =
  Runner.drive ~run:(run_ops ?fault) ~simplify:(fun _ -> None) kinds trace
let run_stream ?fault ~seed ~ops kinds = check ?fault kinds (gen_ops ~seed ~ops)

(* --- persistence (same header convention as Trace) --- *)

let save ?fault ~spec path ops =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Printf.sprintf "%% requires rel=%s\n" (spec_to_string spec));
      (match fault with
      | Some f -> output_string oc (Printf.sprintf "%% fault %s\n" (fault_to_string f))
      | None -> ());
      List.iter (fun op -> output_string oc (rop_to_string op ^ "\n")) ops)

(* Relation traces reuse Trace's hint header, so [Trace.load_hint]
   reads the [rel=] requirement back. *)
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
