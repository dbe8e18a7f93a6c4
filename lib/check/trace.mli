(** Operation traces: the replayable currency of the fuzzer.

    A trace is a list of operations against a dynamic document
    collection. Document ids are not stored at insertion time -- the
    k-th [Insert] always receives id k from both the model and every
    structure under test -- so a trace is position-independent data that
    survives shrinking: deleting an [Insert] shifts later ids in the
    model and in the structures identically.

    The textual format is line-based (["+ \"text\""], ["- id"],
    ["? \"pat\""], ["# \"pat\""], ["= doc off len"], ["@ id"], ["!!"];
    blank lines and [%]-comments ignored) so failing CI seeds replay as
    one-liners: [dsdg fuzz --replay trace-file]. *)

type op =
  | Insert of string
  | Delete of int
  | Search of string
  | Count of string
  | Extract of { doc : int; off : int; len : int }
  | Mem of int
  | Drain
      (** Land every in-flight background job now
          ([Dynamic_index.drain]) -- a random forced-completion point,
          meaningful mostly for the pooled executor. *)

(** A located parse failure: the 1-based line number, the offending
    record verbatim, and which field failed to scan. Raised by {!load}
    (and by the write-ahead-log reader in [Dsdg_store.Wal], which shares
    this format) so that a corrupt log reports {e where} it is corrupt. *)
type parse_error = { pe_line : int; pe_text : string; pe_reason : string }

exception Parse_error of parse_error

(** Render as ["file:line N: reason (offending record: ...)"]. *)
val parse_error_message : ?file:string -> parse_error -> string

val op_to_string : op -> string

(** One-line parse with a field-level reason; the building block of
    {!op_of_string}, {!load} and the WAL reader. *)
val parse_op : string -> (op, string) result

(** Raises [Invalid_argument] on garbage (with the offending field in
    the message). *)
val op_of_string : string -> op

(** Numbered, one op per line -- the shape printed with failures. *)
val render : op list -> string

(** A replay hint: the shape a recorded failure needs to reproduce.
    Saved as a ["% requires shards=K tau=3 readers=N"] comment
    header, so hinted traces remain loadable by any reader (comments
    are skipped) while hint-aware replayers ([dsdg fuzz --replay]) can
    refuse to replay under a different shape. An absent field means no
    requirement. *)
type hint = {
  h_shards : int option;
  h_rel : bool;
      (** a relation-stream trace: saved as [rel=str]; any [rel=] value
          reads as [true] (older traces wrote [k2] or [both]) *)
  h_index : (string * string) list;
      (** every other [key=value] field: the index settings the run
          used, as written by {!Dsdg_core.Index_config.to_hint} *)
}

(** No requirements recorded. *)
val no_hint : hint

val save : ?hint:hint -> string -> op list -> unit

(** The hint header of a saved trace ({!no_hint} for pre-hint traces
    and traces saved without one). Unknown keys and fields without a
    [key=value] shape read as absent; [Error "shards=two"] names a
    [shards] value that is not an integer. The index fields are checked
    by {!Dsdg_core.Index_config.of_hint}. *)
val load_hint : string -> (hint, string) result

(** Raises {!Parse_error} (with the line number and offending field) on
    parse errors, [Sys_error] if unreadable. Blank lines and
    [%]-comments are skipped but still counted for line numbers. *)
val load : string -> op list
