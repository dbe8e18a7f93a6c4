(** A document collection under differential test.

    {!Runner} drives subjects and compares every answer with {!Model};
    it never sees what is behind the closures. A plain
    {!Dsdg_core.Dynamic_index} ({!of_index}), a durable store, a
    sharded collection, a client talking to a served leader and a
    promoted replica are all subjects, so one runner, one verifier and
    one kill sweep cover them all. *)

type t = {
  name : string;  (** names the subject in failure reports *)
  insert : string -> int;
  delete : int -> bool;
  search : string -> (int * int) list;
      (** [search], [count] raise [Invalid_argument] on the empty
          pattern, like {!Model.search} *)
  count : string -> int;
  extract : doc:int -> off:int -> len:int -> string option;
  mem : int -> bool;
  drain : unit -> unit;
  doc_count : unit -> int;
  total_symbols : unit -> int;
  check : unit -> string list;
      (** run after every op: paper invariants and the published
          view's census; [[]] means healthy *)
  events : unit -> string list;  (** recent structural events, newest first *)
  close : unit -> unit;
}

(** [of_index ~name idx]: queries run on the latest published view
    through {!Dsdg_core.Dynamic_index.query} when [idx] owns readers,
    so the read plane itself is checked (a stale epoch publication
    becomes a model disagreement); directly otherwise. [check] compares
    the view's census with the write plane when [idx] owns readers, and
    runs the {!Oracle} invariants. [close] is
    {!Dsdg_core.Dynamic_index.close}. *)
val of_index : name:string -> Dsdg_core.Dynamic_index.t -> t
