(* The eight settings of one dynamic index; see index_config.mli. *)

type variant = Amortized | Amortized_loglog | Worst_case
type backend = Fm | Plain_sa | Csa

(* Deliberate scheduling defects, injectable for differential-checker
   self-tests (Dsdg_check): a harness that cannot catch a planted bug
   proves nothing.  Transformation 2 reads them; see index_config.mli. *)
type fault = [ `Skip_top_clean | `Worker_crash | `Stale_epoch ]

type t = {
  variant : variant;
  backend : backend;
  sample : int;
  tau : int;
  fault : fault option;
  jobs : int;
  readers : int;
  retain_epochs : int;
}

let default =
  {
    variant = Worst_case;
    backend = Fm;
    sample = 8;
    tau = 8;
    fault = None;
    jobs = 0;
    readers = 0;
    retain_epochs = 0;
  }

(* The OCaml 5 runtime runs at most 128 domains at once, the main one
   included: a fixed limit in 5.1, the default of OCAMLRUNPARAM's [d]
   in 5.2.  Past it, [Domain.spawn] fails half way through a pool. *)
let max_domains = 128

let validate_collection ~indexes ~checkpoint_jobs ~recovery_jobs t =
  let need name v least =
    if v < least then
      invalid_arg (Printf.sprintf "Index_config: %s must be >= %d (got %d)" name least v)
  in
  need "tau" t.tau 1;
  need "sample" t.sample 1;
  need "jobs" t.jobs 0;
  need "readers" t.readers 0;
  need "retain_epochs" t.retain_epochs 0;
  let each = t.jobs + t.readers + checkpoint_jobs in
  (* compared by division, so a huge index count cannot overflow *)
  if recovery_jobs >= max_domains || (each > 0 && indexes > (max_domains - 1 - recovery_jobs) / each)
  then
    invalid_arg
      (Printf.sprintf
         "Index_config: %d index(es) x (jobs %d + readers %d + checkpoint %d) + recovery %d worker \
          domains exceed the OCaml runtime's limit of %d domains, the main one included"
         indexes t.jobs t.readers checkpoint_jobs recovery_jobs max_domains);
  t

let validate = validate_collection ~indexes:1 ~checkpoint_jobs:0 ~recovery_jobs:0

let variants = [ ("amortized", Amortized); ("loglog", Amortized_loglog); ("worst-case", Worst_case) ]
let backends = [ ("fm", Fm); ("sa", Plain_sa); ("csa", Csa) ]

let faults : (string * fault) list =
  [ ("skip-top-clean", `Skip_top_clean); ("worker-crash", `Worker_crash); ("stale-epoch", `Stale_epoch) ]

(* One row per hinted field: hint key (which is also the command-line
   flag), rendering, parsing. The hint header, the replay line and the
   mismatch report all read this table, so they cannot disagree about a
   field. The shape travels as the replay line's explicit
   --variant/--backend, and the fuzz harnesses never read a retained
   view, so neither has a row. *)
type field = { key : string; get : t -> string; set : t -> string -> t option }

let field key (show, parse) get set =
  {
    key;
    get = (fun t -> show (get t));
    set = (fun t s -> Option.map (set t) (parse s));
  }

let enum table = ((fun v -> fst (List.find (fun (_, x) -> x = v) table)), fun s -> List.assoc_opt s table)
let int = (string_of_int, int_of_string_opt)

let fields =
  let fault = enum (("none", None) :: List.map (fun (n, f) -> (n, Some f)) faults) in
  [
    field "sample" int (fun t -> t.sample) (fun t sample -> { t with sample });
    field "tau" int (fun t -> t.tau) (fun t tau -> { t with tau });
    field "fault" fault (fun t -> t.fault) (fun t fault -> { t with fault });
    field "jobs" int (fun t -> t.jobs) (fun t jobs -> { t with jobs });
    field "readers" int (fun t -> t.readers) (fun t readers -> { t with readers });
  ]

let changed ~base t = List.filter (fun f -> f.get t <> f.get base) fields
let to_hint ~base t = List.map (fun f -> (f.key, f.get t)) (changed ~base t)

let of_hint ~base pairs =
  List.fold_left
    (fun acc (k, v) ->
      Result.bind acc (fun t ->
          match List.find_opt (fun f -> f.key = k) fields with
          | Some f -> Option.to_result (f.set t v) ~none:(k ^ "=" ^ v)
          | None -> Ok t))
    (Ok base) pairs

let mismatches pairs t =
  Result.map
    (fun want -> List.map (fun f -> (f.key, f.get want, f.get t)) (changed ~base:t want))
    (of_hint ~base:t pairs)

let to_flags ~base t =
  String.concat "" (List.map (fun f -> Printf.sprintf " --%s %s" f.key (f.get t)) (changed ~base t))
