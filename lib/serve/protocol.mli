(** Wire protocol of the service plane: newline-framed text, one
    request and one response per frame.

    The request grammar {e is} the {!Dsdg_check.Trace} op grammar (["+
    \"text\""], ["- 7"], ["? \"pat\""], ["# \"pat\""], ["= doc off
    len"], ["@ id"]) extended with the session verbs ["stats"],
    ["ping"] and ["quit"] -- so a WAL or a saved fuzz trace can be
    piped to a server verbatim, and document payloads are binary-safe
    through OCaml [%S] escaping (a frame never contains a raw
    newline).

    Responses are one line: ["ok ..."] with a verb-specific tail,
    ["none"] for a missed extraction, or ["err \"reason\""]. Frame
    size is bounded on both sides; an overlong or unparseable frame is
    a protocol violation -- the server answers [err] and drops the
    connection (DESIGN.md section 11 has the full grammar). *)

(** A parsed request frame. *)
type request =
  | Op of Dsdg_check.Trace.op  (** index op, mutation or query *)
  | Stats  (** server + index counters *)
  | Ping
  | Quit  (** polite close; the server answers [ok bye] and hangs up *)
  | Repl of { stream : string; from : int }
      (** replication poll: ship stream records with position [>= from].
          The streams are the shard WALs ["wal0".."walK-1"] (["wal0"]
          alone at K = 1). The reply is a bounded multi-frame batch:
          zero or more [rec] frames (or a [snap] header plus its [chunk]
          frames when [from] predates the leader's compacted log),
          always terminated by one [hb] frame. *)

(** [parse_request line] -- [Error reason] on an unknown verb or a
    malformed op line (the reasons come from {!Dsdg_check.Trace}). *)
val parse_request : string -> (request, string) result

val request_to_string : request -> string

(** A response frame. [Hits] carries (doc, off) pairs; [Stats] carries
    [key=value] counters; [Text]/[No_text] are the two extraction
    outcomes; [Id]/[Int]/[Bool] serve inserts, counts and
    delete/mem. *)
type response =
  | Id of int
  | Bool of bool
  | Int of int
  | Hits of (int * int) list
  | Text of string
  | No_text
  | Stats_of of (string * int) list
  | Pong
  | Bye
  | Err of string
  | Rec of int * string
      (** one shipped stream record: (position, raw record line) -- a
          {!Dsdg_check.Trace} op line in the shard's local ids *)
  | Hb of { bound : int; epoch : int }
      (** batch terminator: [bound] is the stream's current shipping
          bound (ask from here next), [epoch] the leader-side epoch of
          the stream (the shard's view epoch) *)
  | Snap of { serial : int; chunks : int }
      (** snapshot bootstrap header: the requested position was
          compacted away; [chunks] [Chunk] frames of the snapshot file
          aligned with WAL serial [serial] follow *)
  | Chunk of string  (** one [%S]-escaped span of snapshot file bytes *)

val response_to_string : response -> string

(** Inverse of {!response_to_string}; [Error] explains the malformed
    field. Used by the client and by the protocol round-trip tests. *)
val parse_response : string -> (response, string) result

(** {1 Bounded frame reader}

    A buffered reader that never accumulates more than [max_frame]
    bytes while hunting for the next newline, so a peer cannot balloon
    the peer's memory by withholding the frame terminator. *)

type reader

(** [reader ~max_frame fd]. [max_frame] counts the frame body
    (terminating newline excluded) and must be [>= 1]. *)
val reader : max_frame:int -> Unix.file_descr -> reader

(** Next frame, without its newline. [`Too_long] means the peer
    exceeded [max_frame] before terminating the frame -- the connection
    is poisoned (framing can no longer be trusted) and must be closed.
    [`Eof] is a clean end of stream only if it falls on a frame
    boundary; mid-frame bytes before EOF are discarded. Unix errors
    (including a [SO_RCVTIMEO] read timeout, [EAGAIN]) escape as
    [Unix.Unix_error]. *)
val read_frame : reader -> [ `Frame of string | `Eof | `Too_long ]

(** [write_frame fd s] writes [s ^ "\n"], looping over partial writes.
    [s] must not contain a newline. *)
val write_frame : Unix.file_descr -> string -> unit
