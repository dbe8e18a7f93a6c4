(** The read plane shared by every transformation (DESIGN.md section 9).

    The paper answers a query the same way under every transformation:
    ask C0 and each sub-collection, and merge the answers. A published
    view is that list of frozen structures under their census names
    ([C0], [L0], [Cj], [Lj], [Tempj], [Tk]) plus the epoch and the
    collection's counts. It is immutable end to end, so any domain may
    query it without synchronization while the writer keeps mutating.
    A transformation's [publish] only lists its structures: each one
    caches its frozen {!component} until its next mutation
    ([Semi_static.snapshot], [Doc_buffer.snapshot]), so publishing
    allocates list cells and rebuilds only what the update touched. *)

open Dsdg_obs

(** One frozen structure: live and dead symbol counts, queries against
    the frozen state, and its live documents (read from immutable data
    only, so any domain may call it). *)
type component = {
  live : int;
  dead : int;
  search : string -> f:(doc:int -> off:int -> unit) -> unit;
  count : string -> int;
  mem : int -> bool;
  extract : doc:int -> off:int -> len:int -> string option;
  docs : unit -> (int * string) list;
}

(** A published epoch: [epoch] completed updates, [docs] live documents,
    [symbols] live symbols (one separator per document), [next_id] the
    id the next insert gets, and every queryable structure in census
    order. *)
type t = {
  epoch : int;
  docs : int;
  symbols : int;
  next_id : int;
  components : (string * component) list;
}

(** {1 Queries}

    Raw: the empty-pattern and [len = 0] conventions are
    [Dynamic_index]'s. *)

let search v p ~f = List.iter (fun (_, c) -> c.search p ~f) v.components

(** All [(doc, off)] occurrences, sorted. *)
let matches v p =
  let acc = ref [] in
  search v p ~f:(fun ~doc ~off -> acc := (doc, off) :: !acc);
  List.sort compare !acc

let count v p = List.fold_left (fun a (_, c) -> a + c.count p) 0 v.components
let mem v doc = List.exists (fun (_, c) -> c.mem doc) v.components

(** A document lives in exactly one component (a [Tempj] is the only
    holder of its document), so the first that knows it answers. *)
let extract v ~doc ~off ~len =
  match List.find_opt (fun (_, c) -> c.mem doc) v.components with
  | Some (_, c) -> c.extract ~doc ~off ~len
  | None -> None

(** Per-structure [(name, live, dead)], built on demand. *)
let census v = List.map (fun (name, c) -> (name, c.live, c.dead)) v.components

(** Every live document of the epoch, ascending ids: the inversion of
    each component. O(n); safe on any domain. *)
let live_docs v =
  let docs = Array.of_list (List.concat_map (fun (_, (c : component)) -> c.docs ()) v.components) in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) docs;
  docs

(** {1 Component names}

    Shared strings, so naming a component allocates nothing: a table
    for the levels a schedule reaches, [sprintf] past it (top keys). *)

let name prefix =
  let table = Array.init 130 (fun j -> prefix ^ string_of_int j) in
  fun j -> if j < Array.length table then table.(j) else prefix ^ string_of_int j

let c_name = name "C"
let l_name = name "L"
let temp_name = name "Temp"
let t_name = name "T"

(** {1 Publishing} *)

(** The writer's side: the atomic pointer to the latest view and the
    epoch counters in the owner's scope. *)
type publisher = {
  latest : t Atomic.t;
  obs : Obs.scope;
  c_published : Obs.counter;
  g_current : Obs.gauge;
  h_publish_ns : Obs.histogram;
}

(** Starts at the empty epoch 0. *)
let publisher obs =
  {
    latest = Atomic.make { epoch = 0; docs = 0; symbols = 0; next_id = 0; components = [] };
    obs;
    c_published = Obs.counter obs "exec_epoch_published";
    g_current = Obs.gauge obs "exec_epoch_current";
    h_publish_ns = Obs.histogram obs "exec_epoch_publish_ns";
  }

(** The latest published view: one [Atomic.get]. *)
let latest p = Atomic.get p.latest

(** Publish [build ()] as the next epoch, or as epoch [e] for
    [`Restored e] (a restored index continues its dump's epoch).
    [`Drain] and [`Consolidate] also record an [Epoch_publish] event. *)
let publish p ~cause ~docs ~symbols ~next_id build =
  let t0 = Obs.start () in
  let epoch =
    match cause with `Restored e -> e | `Update | `Drain | `Consolidate -> (latest p).epoch + 1
  in
  Atomic.set p.latest { epoch; docs; symbols; next_id; components = build () };
  Obs.incr p.c_published;
  Obs.set_gauge p.g_current epoch;
  Obs.stop p.h_publish_ns t0;
  match cause with
  | `Update | `Restored _ -> ()
  | `Drain -> Obs.record p.obs (Obs.Epoch_publish { epoch; cause = "drain" })
  | `Consolidate -> Obs.record p.obs (Obs.Epoch_publish { epoch; cause = "consolidate" })
