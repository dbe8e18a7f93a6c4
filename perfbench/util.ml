(* Shared machinery of the benchmark: clock, exact percentiles, the
   in-memory span recorder, Obs scope deltas, the result record and its
   JSON rendering, and file-system helpers. Nothing here reaches into
   the library beyond its public interfaces. *)

module Obs = Dsdg_obs.Obs

(* ---------- clock ---------- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let us_of_ns ns = float_of_int ns /. 1e3
let s_of_ns ns = float_of_int ns /. 1e9

(* ---------- latency samples and exact percentiles ---------- *)

(* A growable float buffer: latencies are stored raw, never bucketed,
   so every reported percentile is exact. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n
  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  let mean t = if t.n = 0 then 0. else sum t /. float_of_int t.n
end

(* Nearest-rank percentile of a sorted array; 0 on an empty one. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

(* The closed-loop workloads also keep their samples per fifth of the
   timed phase and report the median over the five segments of each
   percentile and of the throughput, so a burst of interference on a
   shared machine moves one segment, not the figure. Each segment still
   holds over a thousand queries at the default size, so every
   per-segment p99 has ten samples beyond it. *)
let segments = 5

let segment_of ~seconds ~since_ns = max 0 (min (segments - 1) (since_ns * segments / (seconds * 1_000_000_000)))

let mean l = if l = [] then 0. else List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Median over the non-empty segments of their [p] percentile. *)
let segment_pct (segs : Samples.t array) p =
  median
    (List.filter_map
       (fun s -> if Samples.count s = 0 then None else Some (pct (Samples.sorted s) p))
       (Array.to_list segs))

(* Median over the segments of their throughput. *)
let segment_rate (ops : int array) ~seconds =
  let seg_s = float_of_int seconds /. float_of_int (Array.length ops) in
  median (Array.to_list (Array.map (fun n -> float_of_int n /. seg_s) ops))

(* Start a timed section from a compacted heap, so garbage left by input
   generation or by the previous section is not collected on its clock. *)
let settle () = Gc.compact ()

(* ---------- spans (the traced run) ---------- *)

(* Spans are kept in memory -- name, start, end, parent span, request id
   -- and written out once the run is over. They are recorded only from
   the benchmark's own code, around each call into a layer. *)
module Trace = struct
  type span = { name : string; t0 : int; mutable t1 : int; parent : int; req : int }

  let on = ref false
  let spans : span array ref = ref [||]
  let n = ref 0
  let stack = ref []
  let dummy = { name = ""; t0 = 0; t1 = 0; parent = -1; req = -1 }

  let push s =
    if !n = Array.length !spans then begin
      let b = Array.make (max 1024 (2 * !n)) dummy in
      Array.blit !spans 0 b 0 !n;
      spans := b
    end;
    !spans.(!n) <- s;
    incr n;
    !n - 1

  (* [span ~req name f] times [f] as a child of the innermost open span;
     [req] is the op the call serves. A no-op wrapper when tracing is
     off. *)
  let span ~req name f =
    if not !on then f ()
    else begin
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      let id = push { name; t0 = now_ns (); t1 = 0; parent; req } in
      stack := id :: !stack;
      let finish () =
        !spans.(id).t1 <- now_ns ();
        stack := List.tl !stack
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  (* A span whose interval was measured elsewhere (open-loop requests:
     from when the op was due to its reply). Returns its id. *)
  let record ?(parent = -1) ?(req = -1) name t0 t1 =
    if !on then push { name; t0; t1; parent; req } else -1

  let iter f =
    for i = 0 to !n - 1 do
      f i !spans.(i)
    done

  (* Durations (us) of every span called [name]. *)
  let durations name =
    let s = Samples.create () in
    iter (fun _ sp -> if sp.name = name then Samples.add s (us_of_ns (sp.t1 - sp.t0)));
    s

  (* Wall time (ns) of [lo, hi) covered by root spans (the union of
     their intervals: open-loop requests overlap). *)
  let root_cover ~lo ~hi =
    let iv = ref [] in
    iter (fun _ sp -> if sp.parent < 0 && sp.t1 > lo && sp.t0 < hi then iv := (max lo sp.t0, min hi sp.t1) :: !iv);
    let sorted = List.sort compare !iv in
    let c = ref 0 and reach = ref lo in
    List.iter
      (fun (a, b) ->
        let a = max a !reach in
        if b > a then begin
          c := !c + (b - a);
          reach := b
        end)
      sorted;
    !c

  let write path =
    let oc = open_out path in
    output_string oc "id,parent,req,name,start_ns,end_ns\n";
    iter (fun i sp -> Printf.fprintf oc "%d,%d,%d,%s,%d,%d\n" i sp.parent sp.req sp.name sp.t0 sp.t1);
    close_out oc
end

(* A traced run alternates 250 ms slices with tracing on and off, so its
   tracing overhead is measured against the untraced rate of the same
   run. [tick] counts ops finished at [t1] and flips tracing at a slice
   end; [finish] closes the last slice. *)
module Slices = struct
  type t = {
    mutable t0 : int;
    mutable ops : int;
    mutable on_ops : int;
    mutable on_ns : int;
    mutable off_ops : int;
    mutable off_ns : int;
  }

  let length_ns = 250_000_000
  let create t0 = { t0; ops = 0; on_ops = 0; on_ns = 0; off_ops = 0; off_ns = 0 }

  let finish s t1 =
    if !Trace.on then begin
      s.on_ops <- s.on_ops + s.ops;
      s.on_ns <- s.on_ns + (t1 - s.t0)
    end
    else begin
      s.off_ops <- s.off_ops + s.ops;
      s.off_ns <- s.off_ns + (t1 - s.t0)
    end;
    s.t0 <- t1;
    s.ops <- 0

  let tick s ~k t1 =
    s.ops <- s.ops + k;
    if t1 - s.t0 >= length_ns then begin
      finish s t1;
      Trace.on := not !Trace.on
    end

  let traced_ns s = s.on_ns

  (* How much slower the traced slices ran, in percent. *)
  let overhead_pct s =
    let rate o n = if n = 0 then 0. else float_of_int o /. float_of_int n in
    let on = rate s.on_ops s.on_ns in
    if on = 0. then 0. else 100. *. ((rate s.off_ops s.off_ns /. on) -. 1.)
end

(* ---------- Obs scope deltas ---------- *)

(* A reading of one scope: counters/gauges and each histogram's exact
   (n, sum). Busy times come from histogram sums, never from the
   log-bucketed quantiles. *)
type obs_reading = { counters : (string * int) list; hists : (string * (int * int)) list }

let read_scope sc =
  {
    counters = Obs.counters sc;
    hists = List.map (fun (k, (h : Obs.histogram_summary)) -> (k, (h.n, h.sum))) (Obs.histograms sc);
  }

let read_named name = read_scope (Obs.scope name)

let counter_delta ~before ~after k =
  let g r = Option.value ~default:0 (List.assoc_opt k r.counters) in
  g after - g before

let hist_delta ~before ~after k =
  let g r = Option.value ~default:(0, 0) (List.assoc_opt k r.hists) in
  let n1, s1 = g after and n0, s0 = g before in
  (n1 - n0, s1 - s0)

let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* ---------- results ---------- *)

type metric = { name : string; value : float; unit : string }

let m name value unit = { name; value; unit }

type result = {
  e2e : metric list;
  layers : metric list;
  attempted : int;
  failed : int;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let to_json ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_float x.value) x.unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body

(* ---------- files ---------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

(* Bytes under [path], recursively; [keep] filters file basenames. *)
let rec du ?(keep = fun _ -> true) path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc f -> acc + du ~keep (Filename.concat path f)) 0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> if keep (Filename.basename path) then st_size else 0
  | _ -> 0

let is_wal_file name = String.length name >= 7 && String.sub name 0 7 = "wal.log"

(* ---------- seeded input helpers ---------- *)

(* Zipf rank in [0, n) with P(r) ~ 1/(r+1), by inverse CDF over a
   precomputed table (seeded, exact, O(log n) per draw). *)
let zipf_table n =
  let c = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (i + 1));
    c.(i) <- !acc
  done;
  c

let zipf_draw st table =
  let n = Array.length table in
  let u = Random.State.float st table.(n - 1) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if table.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* A set of ints with O(1) add/remove/uniform pick (dense array +
   position table) -- the generators' simulation of the live ids. *)
module Pool = struct
  type t = { mutable a : int array; mutable n : int; pos : (int, int) Hashtbl.t }

  let create () = { a = Array.make 1024 0; n = 0; pos = Hashtbl.create 1024 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    Hashtbl.replace t.pos x t.n;
    t.n <- t.n + 1

  let remove t x =
    match Hashtbl.find_opt t.pos x with
    | None -> ()
    | Some i ->
      let last = t.a.(t.n - 1) in
      t.a.(i) <- last;
      Hashtbl.replace t.pos last i;
      Hashtbl.remove t.pos x;
      t.n <- t.n - 1

  let size t = t.n
  let pick t st = t.a.(Random.State.int st t.n)
end
