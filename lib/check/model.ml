(* Naive reference models: the ground truth the dynamic structures are
   differentially checked against. See model.mli. *)

type t = {
  mutable next_id : int;
  docs : (int, string) Hashtbl.t;
}

let create () = { next_id = 0; docs = Hashtbl.create 64 }

let insert m text =
  let id = m.next_id in
  m.next_id <- id + 1;
  Hashtbl.replace m.docs id text;
  id

let delete m id =
  if Hashtbl.mem m.docs id then begin
    Hashtbl.remove m.docs id;
    true
  end
  else false

let mem m id = Hashtbl.mem m.docs id
let inserted m = m.next_id
let live m = List.sort compare (Hashtbl.fold (fun d s acc -> (d, s) :: acc) m.docs [])
let doc_count m = Hashtbl.length m.docs
let total_symbols m = Hashtbl.fold (fun _ s acc -> acc + String.length s + 1) m.docs 0

let occurrences (docs : (int * string) list) (p : string) : (int * int) list =
  let res = ref [] in
  let pl = String.length p in
  List.iter
    (fun (d, str) ->
      for off = 0 to String.length str - pl do
        if String.sub str off pl = p then res := (d, off) :: !res
      done)
    docs;
  List.sort compare !res

(* The Dynamic_index conventions, mirrored: the empty pattern is
   rejected, and a zero-length extract depends only on liveness. *)
let search m p =
  if p = "" then invalid_arg "Model: empty pattern";
  occurrences (live m) p

let count m p = List.length (search m p)

let extract m ~doc ~off ~len =
  match Hashtbl.find_opt m.docs doc with
  | None -> None
  | Some s ->
    if len = 0 then Some ""
    else if off < 0 || len < 0 || off + len > String.length s then None
    else Some (String.sub s off len)

module Rel = struct
  type r = (int * int, unit) Hashtbl.t

  let create () : r = Hashtbl.create 64

  let add r o a =
    if Hashtbl.mem r (o, a) then false
    else begin
      Hashtbl.replace r (o, a) ();
      true
    end

  let remove r o a =
    if Hashtbl.mem r (o, a) then begin
      Hashtbl.remove r (o, a);
      true
    end
    else false

  let related r o a = Hashtbl.mem r (o, a)
  let size r = Hashtbl.length r

  let labels_of_object r o =
    List.sort compare (Hashtbl.fold (fun (o', a) () acc -> if o' = o then a :: acc else acc) r [])

  let objects_of_label r a =
    List.sort compare (Hashtbl.fold (fun (o, a') () acc -> if a' = a then o :: acc else acc) r [])

  let count_labels_of_object r o = List.length (labels_of_object r o)
  let count_objects_of_label r a = List.length (objects_of_label r a)
  let pairs r = List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) r [])
end
