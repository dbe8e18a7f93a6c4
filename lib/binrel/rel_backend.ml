(* The dynamic-relation seam: one module type both relation backends
   satisfy, a runtime [kind] for the CLI flag, and a packed existential
   so Digraph / Triple_store can hold a backend-chosen relation in an
   ordinary field.  The kind is a runtime choice, never persisted:
   snapshots store the live pair set and recovery re-ingests it into
   whichever backend the reopening process selects. *)

type kind = Str | K2

let kind_to_string = function Str -> "str" | K2 -> "k2"
let kind_of_string = function "str" -> Some Str | "k2" -> Some K2 | _ -> None
let all_kinds = [ Str; K2 ]

(* Union of both backends' update counters; fields foreign to a
   backend read zero. *)
type stats = { merges : int; purges : int; global_rebuilds : int; grows : int }

module type S = sig
  type t

  val name : string
  val create : ?tau:int -> unit -> t
  val of_pairs : ?tau:int -> (int * int) list -> t
  val add : t -> int -> int -> bool
  val remove : t -> int -> int -> bool
  val related : t -> int -> int -> bool
  val labels_of_object : t -> int -> f:(int -> unit) -> unit
  val objects_of_label : t -> int -> f:(int -> unit) -> unit
  val labels_of_object_list : t -> int -> int list
  val objects_of_label_list : t -> int -> int list
  val count_labels_of_object : t -> int -> int
  val count_objects_of_label : t -> int -> int
  val live_pairs : t -> int
  val space_bits : t -> int
  val stats : t -> stats
  val obs : t -> Dsdg_obs.Obs.scope
  val iter_pairs : t -> f:(int -> int -> unit) -> unit
  val pairs_list : t -> (int * int) list
end

module Str_backend : S = struct
  include Dyn_binrel

  let name = "str"

  let stats t =
    let s = Dyn_binrel.stats t in
    {
      merges = s.Dyn_binrel.merges;
      purges = s.Dyn_binrel.purges;
      global_rebuilds = s.Dyn_binrel.global_rebuilds;
      grows = 0;
    }
end

module K2_backend : S = struct
  include K2_relation

  let name = "k2"

  (* no rebuild schedule to bulk-load into: one [add] per pair *)
  let of_pairs ?tau pairs =
    let t = create ?tau () in
    List.iter (fun (o, a) -> ignore (add t o a)) pairs;
    t

  let stats t = { merges = 0; purges = 0; global_rebuilds = 0; grows = (K2_relation.stats t).K2_relation.grows }
end

let of_kind : kind -> (module S) = function
  | Str -> (module Str_backend)
  | K2 -> (module K2_backend)

(* A relation packed with its operations: Digraph and Triple_store
   store one of these and stay backend-agnostic. *)
type rel = Rel : (module S with type t = 'a) * 'a -> rel

let create ?tau kind =
  let (module B) = of_kind kind in
  Rel ((module B), B.create ?tau ())

let of_pairs ?tau kind pairs =
  let (module B) = of_kind kind in
  Rel ((module B), B.of_pairs ?tau pairs)

let kind_of (Rel ((module B), _)) =
  match kind_of_string B.name with Some k -> k | None -> assert false

let add (Rel ((module B), r)) o a = B.add r o a
let remove (Rel ((module B), r)) o a = B.remove r o a
let related (Rel ((module B), r)) o a = B.related r o a
let labels_of_object (Rel ((module B), r)) o ~f = B.labels_of_object r o ~f
let objects_of_label (Rel ((module B), r)) a ~f = B.objects_of_label r a ~f
let labels_of_object_list (Rel ((module B), r)) o = B.labels_of_object_list r o
let objects_of_label_list (Rel ((module B), r)) a = B.objects_of_label_list r a
let count_labels_of_object (Rel ((module B), r)) o = B.count_labels_of_object r o
let count_objects_of_label (Rel ((module B), r)) a = B.count_objects_of_label r a
let live_pairs (Rel ((module B), r)) = B.live_pairs r
let space_bits (Rel ((module B), r)) = B.space_bits r
let stats (Rel ((module B), r)) = B.stats r
let obs (Rel ((module B), r)) = B.obs r
let iter_pairs (Rel ((module B), r)) ~f = B.iter_pairs r ~f
let pairs_list (Rel ((module B), r)) = B.pairs_list r
