(** Versioned, CRC-checked binary container for the durable artifacts.

    Every file [Dsdg_store] writes -- index snapshots and relation /
    digraph dumps -- shares one framing: a 4-byte magic, a format
    version, a kind tag, then named {e sections}, each carrying its
    payload length and a CRC-32 of the payload. The reader verifies the
    magic, the version, the kind and every checksum before any payload
    is interpreted, so a flipped byte or a truncated file is reported as
    {!Corrupt} (naming the section) rather than decoded into garbage.

    What goes {e inside} the sections is the logical state of the
    collection -- live documents and a few scalars, or pair sets.
    Derived structures (suffix arrays, BWTs, wavelet trees, Reporters)
    are deliberately never serialized: they are deterministic functions
    of the logical state, rebuilt on load (see DESIGN.md section 10 for
    the trade-off). *)

(** A failed integrity or decoding check: the file, the section (or
    ["header"]), and what was wrong. *)
exception Corrupt of { file : string; section : string; reason : string }

(** Render as ["file: section ...: reason"]. *)
val corrupt_message : file:string -> section:string -> reason:string -> string

(** Current container format version, written into every file: [2].
    Readers reject newer versions (forward compatibility is explicit,
    not accidental) and still decode version [1], whose snapshots held
    one section per component with deletion bits. *)
val format_version : int

(** CRC-32 (IEEE 802.3 polynomial), as a non-negative int. *)
val crc32 : string -> int

(** {1 Primitive encoders}

    Little-endian, fixed-width primitives used inside section payloads:
    ints are 8 bytes, strings and bool arrays are length-prefixed. *)

module W : sig
  type t

  (** Fresh growable buffer. *)
  val create : unit -> t

  (** One byte; raises [Invalid_argument] outside [0, 255]. *)
  val u8 : t -> int -> unit

  (** 8 bytes, little-endian, sign-preserving. *)
  val int : t -> int -> unit

  (** Length-prefixed raw bytes. *)
  val string : t -> string -> unit

  (** Bit-packed, length-prefixed. *)
  val bool_array : t -> bool array -> unit

  (** Everything written so far, as a section payload. *)
  val contents : t -> string
end

module R : sig
  type t

  (** [of_string ~file ~section payload]: the labels are only used for
      {!Corrupt} reports on overrun or malformed data. *)
  val of_string : file:string -> section:string -> string -> t

  (** Each decoder below mirrors its {!W} counterpart and raises
      {!Corrupt} (with this reader's file/section) on overrun or
      malformed data. *)
  val u8 : t -> int

  (** Mirrors {!W.int}. *)
  val int : t -> int

  (** Mirrors {!W.string}. *)
  val string : t -> string

  (** Mirrors {!W.bool_array}. *)
  val bool_array : t -> bool array

  (** Whether the whole payload has been consumed. *)
  val at_end : t -> bool

  (** Raise {!Corrupt} for this reader's file/section. *)
  val fail : t -> string -> 'a
end

(** {1 Container files} *)

(** [write_file ~path ~kind sections] writes atomically: the bytes go
    to a temporary file in the same directory, which is fsynced and
    renamed into place, so a crash mid-write leaves either the old file
    or the new one -- never a torn hybrid. *)
val write_file : path:string -> kind:string -> (string * string) list -> unit

(** The file's format version and its sections. Validates magic,
    version, kind and every section CRC; raises {!Corrupt} otherwise
    (and [Sys_error] if unreadable). *)
val read_file : path:string -> kind:string -> int * (string * string) list

(** {1 Index snapshots}

    A flat {!Dsdg_core.Dynamic_index.dump} maps to two sections:
    ["meta"] (variant, backend, sample, tau, epoch, next id) and
    ["docs"] (the live [(id, text)] documents in id order). *)

(** Sections for {!write_file}. *)
val encode_dump : Dsdg_core.Dynamic_index.dump -> (string * string) list

(** Decode the sections of a file of format [version]. A version-1
    snapshot (per-component ["c:<name>"] sections with deletion bits)
    is flattened to its live documents. Raises {!Corrupt} on a missing
    or malformed section. *)
val decode_dump :
  file:string -> version:int -> (string * string) list -> Dsdg_core.Dynamic_index.dump

(** {1 Relations and graphs}

    A {!Dsdg_binrel.Dyn_binrel.t} (and therefore a
    {!Dsdg_binrel.Digraph.t}, whose snapshot unit is its edge set) is
    persisted as its live pair set. *)

(** [write_relation path pairs] -- atomic, like {!write_file}. *)
val write_relation : string -> (int * int) list -> unit

(** Raises {!Corrupt} on any integrity failure. *)
val read_relation : string -> (int * int) list
