(* Dynamic RDF-style triple store (the paper's Section 1 motivation: "the
   set of subject-predicate-object RDF triples can be represented as a
   graph or as two binary relations").

   Representation: one dynamic compact digraph (subject -> object) per
   predicate, plus two binary relations linking subjects and objects to
   the predicates they occur with.  The paper's example queries map
   directly:

   - "enumerate all triples in which x occurs as a subject"
       = predicates of x (relation) x successors in each predicate graph;
   - "given x and p, enumerate all triples where x is the subject and p
      the predicate"
       = successors of x in p's graph. *)

type t = {
  graphs : (int, Digraph.t) Hashtbl.t; (* predicate -> subject->object edges *)
  sp : Dyn_binrel.t; (* subject related to predicate *)
  op : Dyn_binrel.t; (* object related to predicate *)
  tau : int;
  mutable triples : int;
}

let create ?(tau = 8) () =
  {
    graphs = Hashtbl.create 16;
    sp = Dyn_binrel.create ~tau ();
    op = Dyn_binrel.create ~tau ();
    tau;
    triples = 0;
  }

let triple_count t = t.triples

let graph_of t p =
  match Hashtbl.find_opt t.graphs p with
  | Some g -> g
  | None ->
    let g = Digraph.create ~tau:t.tau () in
    Hashtbl.replace t.graphs p g;
    g

let mem t ~s ~p ~o =
  match Hashtbl.find_opt t.graphs p with None -> false | Some g -> Digraph.mem_edge g s o

(* Add a triple; false if already present. *)
let add t ~s ~p ~o =
  let g = graph_of t p in
  if not (Digraph.add_edge g s o) then false
  else begin
    t.triples <- t.triples + 1;
    ignore (Dyn_binrel.add t.sp s p);
    ignore (Dyn_binrel.add t.op o p);
    true
  end

(* Remove a triple; false if absent.  The subject/object-to-predicate
   links are dropped when the last triple using them disappears. *)
let remove t ~s ~p ~o =
  match Hashtbl.find_opt t.graphs p with
  | None -> false
  | Some g ->
    if not (Digraph.remove_edge g s o) then false
    else begin
      t.triples <- t.triples - 1;
      if Digraph.out_degree g s = 0 then ignore (Dyn_binrel.remove t.sp s p);
      if Digraph.in_degree g o = 0 then ignore (Dyn_binrel.remove t.op o p);
      true
    end

(* Predicates under which [s] occurs as a subject. *)
let predicates_of_subject t s = Dyn_binrel.labels_of_object_list t.sp s

let predicates_of_object t o = Dyn_binrel.labels_of_object_list t.op o

(* All triples with subject [s]. *)
let triples_with_subject t s =
  List.concat_map
    (fun p ->
      match Hashtbl.find_opt t.graphs p with
      | None -> []
      | Some g -> List.map (fun o -> (s, p, o)) (Digraph.successors g s))
    (predicates_of_subject t s)

(* All triples with object [o]. *)
let triples_with_object t o =
  List.concat_map
    (fun p ->
      match Hashtbl.find_opt t.graphs p with
      | None -> []
      | Some g -> List.map (fun s -> (s, p, o)) (Digraph.predecessors g o))
    (predicates_of_object t o)

(* All triples with subject [s] and predicate [p]. *)
let triples_with_subject_predicate t s p =
  match Hashtbl.find_opt t.graphs p with
  | None -> []
  | Some g -> List.map (fun o -> (s, p, o)) (Digraph.successors g s)

let triples_with_object_predicate t o p =
  match Hashtbl.find_opt t.graphs p with
  | None -> []
  | Some g -> List.map (fun s -> (s, p, o)) (Digraph.predecessors g o)

(* Counting versions (Theorem 2's counting queries). *)
let count_with_subject t s =
  List.fold_left
    (fun acc p ->
      match Hashtbl.find_opt t.graphs p with
      | None -> acc
      | Some g -> acc + Digraph.out_degree g s)
    0 (predicates_of_subject t s)

let count_with_object t o =
  List.fold_left
    (fun acc p ->
      match Hashtbl.find_opt t.graphs p with
      | None -> acc
      | Some g -> acc + Digraph.in_degree g o)
    0 (predicates_of_object t o)

let count_with_predicate t p =
  match Hashtbl.find_opt t.graphs p with None -> 0 | Some g -> Digraph.edge_count g

let space_bits t =
  Hashtbl.fold (fun _ g acc -> acc + Digraph.space_bits g) t.graphs 0
  + Dyn_binrel.space_bits t.sp + Dyn_binrel.space_bits t.op
