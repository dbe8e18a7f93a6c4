(* Shared instrumentation for the dynamization machinery: counters,
   max-gauges, log-bucketed histograms and a structured event ring.

   Everything funnels through [!enabled]: when the flag is off every
   probe is a single load-and-branch, and nothing allocates. When it is
   on, counter/gauge/histogram updates are a few atomic RMWs (histograms
   bucket by bit length, no allocation); only event recording allocates
   (one constructor per rare structural event).

   Domain safety: probes fire from worker domains (background rebuilds)
   and reader domains (the query plane), so every cell is an [Atomic.t]
   -- a plain [mutable int] would lose increments under contention. The
   rare paths (registration, the event ring, [reset]) serialize on a
   lock instead of paying per-cell atomics. Histogram summaries and
   [snapshot] read each cell atomically but not the set of cells as one
   transaction; concurrent recording can make n/sum momentarily
   inconsistent by the in-flight sample, which statistics reporting
   tolerates. *)

let enabled = ref true
let set_enabled b = enabled := b

(* Default nanosecond clock.  gettimeofday is wall-clock, not monotonic,
   but it is dependency-light and the histograms only feed statistics;
   bench harnesses install their monotonic clock via [set_clock]. *)
let default_clock () = int_of_float (Unix.gettimeofday () *. 1e9)
let clock = ref default_clock
let set_clock f = clock := f
let now_ns () = !clock ()

type counter = { c_name : string; count : int Atomic.t }
type gauge = { g_name : string; gv : int Atomic.t }

let hist_buckets = 63

type histogram = {
  h_name : string;
  buckets : int Atomic.t array; (* bucket b: values v with bit-length b, i.e. [2^(b-1), 2^b) *)
  h_n : int Atomic.t;
  h_sum : int Atomic.t;
  h_max : int Atomic.t;
}

type event =
  | Purge of { level : int; dead : int; total : int }
  | Merge of { from_level : int; into_level : int; sync : bool }
  | Lock of { level : int; target : string }
  | Job_start of { slot : int; target : string }
  | Job_step of { slot : int; work : int }
  | Job_force of { slot : int }
  | Job_finish of { slot : int; work : int }
  | Install of { slot : int; target : string; live : int }
  | Top_clean of { key : int; dead : int }
  | Restructure of { nf : int; structures : int }
  | Epoch_publish of { epoch : int; cause : string }
  | Note of string

let ring_capacity = 512

type scope = {
  s_name : string;
  lock : Mutex.t; (* guards cs/gs/hs registration and the event ring *)
  mutable cs : counter list; (* newest first; reversed on read *)
  mutable gs : gauge list;
  mutable hs : histogram list;
  ring : (int * event) option array;
  mutable ring_next : int; (* next write slot *)
  mutable seq : int; (* events recorded since creation/reset *)
}

let make_scope name =
  {
    s_name = name;
    lock = Mutex.create ();
    cs = [];
    gs = [];
    hs = [];
    ring = Array.make ring_capacity None;
    ring_next = 0;
    seq = 0;
  }

let locked m f =
  Mutex.lock m;
  match f () with
  | r ->
    Mutex.unlock m;
    r
  | exception e ->
    Mutex.unlock m;
    raise e

let registry : (string, scope) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()
let registry_order : scope list ref = ref []

let scope name =
  locked registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some s -> s
      | None ->
        let s = make_scope name in
        Hashtbl.replace registry name s;
        registry_order := s :: !registry_order;
        s)

let private_scope name = make_scope name
let scope_name s = s.s_name
let registered () = locked registry_lock (fun () -> List.rev !registry_order)

(* --- counters / gauges (get-or-create by name within a scope) --- *)

let counter s name =
  locked s.lock (fun () ->
      match List.find_opt (fun c -> c.c_name = name) s.cs with
      | Some c -> c
      | None ->
        let c = { c_name = name; count = Atomic.make 0 } in
        s.cs <- c :: s.cs;
        c)

let[@inline] incr c = if !enabled then Atomic.incr c.count
let[@inline] add c n = if !enabled then ignore (Atomic.fetch_and_add c.count n)
let value c = Atomic.get c.count

let gauge s name =
  locked s.lock (fun () ->
      match List.find_opt (fun g -> g.g_name = name) s.gs with
      | Some g -> g
      | None ->
        let g = { g_name = name; gv = Atomic.make 0 } in
        s.gs <- g :: s.gs;
        g)

let[@inline] set_gauge g v = if !enabled then Atomic.set g.gv v

let[@inline] atomic_max cell v =
  let rec go () =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then go ()
  in
  go ()

let[@inline] set_max g v = if !enabled then atomic_max g.gv v
let gauge_value g = Atomic.get g.gv

(* --- histograms --- *)

let histogram s name =
  locked s.lock (fun () ->
      match List.find_opt (fun h -> h.h_name = name) s.hs with
      | Some h -> h
      | None ->
        let h =
          {
            h_name = name;
            buckets = Array.init hist_buckets (fun _ -> Atomic.make 0);
            h_n = Atomic.make 0;
            h_sum = Atomic.make 0;
            h_max = Atomic.make 0;
          }
        in
        s.hs <- h :: s.hs;
        h)

(* bit length of v, clamped to the bucket range; bucket 0 holds v <= 0 *)
let[@inline] bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      Stdlib.incr b;
      x := !x lsr 1
    done;
    if !b >= hist_buckets then hist_buckets - 1 else !b
  end

let observe h v =
  if !enabled then begin
    let b = bucket_of v in
    Atomic.incr h.buckets.(b);
    Atomic.incr h.h_n;
    ignore (Atomic.fetch_and_add h.h_sum v);
    atomic_max h.h_max v
  end

let[@inline] start () = if !enabled then !clock () else 0
let[@inline] stop h t0 = if !enabled then observe h (!clock () - t0)

let time h f =
  if !enabled then begin
    let t0 = !clock () in
    let r = f () in
    observe h (!clock () - t0);
    r
  end
  else f ()

type histogram_summary = { n : int; sum : int; max : int; p50 : int; p90 : int; p99 : int }

(* Upper bound of bucket [b]: the largest value with bit length b. *)
let bucket_upper b = if b = 0 then 0 else (1 lsl b) - 1

let percentile ~counts ~total q =
  if total = 0 then 0
  else begin
    let target = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let acc = ref 0 and res = ref (bucket_upper (hist_buckets - 1)) and found = ref false in
    for b = 0 to hist_buckets - 1 do
      if not !found then begin
        acc := !acc + counts.(b);
        if !acc >= target then begin
          res := bucket_upper b;
          found := true
        end
      end
    done;
    !res
  end

let summarize h =
  (* one coherent pass over the buckets; percentiles are computed from
     this local copy so a concurrent observe cannot skew them mid-scan *)
  let counts = Array.map Atomic.get h.buckets in
  let total = Array.fold_left ( + ) 0 counts in
  {
    n = Atomic.get h.h_n;
    sum = Atomic.get h.h_sum;
    max = Atomic.get h.h_max;
    p50 = percentile ~counts ~total 0.50;
    p90 = percentile ~counts ~total 0.90;
    p99 = percentile ~counts ~total 0.99;
  }

(* --- events --- *)

let record s e =
  if !enabled then
    locked s.lock (fun () ->
        s.ring.(s.ring_next) <- Some (s.seq, e);
        s.seq <- s.seq + 1;
        s.ring_next <- (s.ring_next + 1) mod ring_capacity)

let recent s =
  locked s.lock (fun () ->
      let acc = ref [] in
      for i = 0 to ring_capacity - 1 do
        (* walk forward from the oldest slot so [acc] ends newest-first *)
        match s.ring.((s.ring_next + i) mod ring_capacity) with
        | None -> ()
        | Some entry -> acc := entry :: !acc
      done;
      !acc)

let event_to_string = function
  | Purge { level; dead; total } ->
    Printf.sprintf "purge: C%d has %d/%d dead syms; rebuilding without them" level dead total
  | Merge { from_level; into_level; sync } ->
    Printf.sprintf "%s: C%d -> C%d" (if sync then "sync merge" else "merge") from_level into_level
  | Lock { level; target } ->
    Printf.sprintf "lock: C%d -> L%d; building %s in background" level level target
  | Job_start { slot; target } -> Printf.sprintf "job start: slot %d -> %s" slot target
  | Job_step { slot; work } -> Printf.sprintf "job step: slot %d advanced %d ticks" slot work
  | Job_force { slot } -> Printf.sprintf "force: finishing job at slot %d synchronously" slot
  | Job_finish { slot; work } -> Printf.sprintf "job finish: slot %d after %d ticks" slot work
  | Install { slot; target; live } ->
    Printf.sprintf "install: slot %d -> %s (%d live syms)" slot target live
  | Top_clean { key; dead } ->
    Printf.sprintf "clean: rebuilding top T%d in background (%d dead syms)" key dead
  | Restructure { nf; structures } ->
    Printf.sprintf "restructure: nf=%d, %d structures" nf structures
  | Epoch_publish { epoch; cause } -> Printf.sprintf "epoch publish: #%d after %s" epoch cause
  | Note s -> s

(* --- reporting --- *)

let counters s =
  let cs, gs = locked s.lock (fun () -> (s.cs, s.gs)) in
  List.rev_map (fun c -> (c.c_name, Atomic.get c.count)) cs
  @ List.rev_map (fun g -> (g.g_name, Atomic.get g.gv)) gs

let histograms s =
  let hs = locked s.lock (fun () -> s.hs) in
  List.rev_map (fun h -> (h.h_name, summarize h)) hs

let snapshot s =
  counters s
  @ List.concat_map
      (fun (name, sm) ->
        [ (name ^ ".n", sm.n); (name ^ ".p50", sm.p50); (name ^ ".p99", sm.p99); (name ^ ".max", sm.max) ])
      (histograms s)

let reset s =
  locked s.lock (fun () ->
      List.iter (fun c -> Atomic.set c.count 0) s.cs;
      List.iter (fun g -> Atomic.set g.gv 0) s.gs;
      List.iter
        (fun h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.h_n 0;
          Atomic.set h.h_sum 0;
          Atomic.set h.h_max 0)
        s.hs;
      Array.fill s.ring 0 ring_capacity None;
      s.ring_next <- 0;
      s.seq <- 0)

let render ?(max_events = 20) ?(title = "") s =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "[%s%s]\n" title s.s_name);
  let cs = counters s in
  if cs <> [] then begin
    let width = List.fold_left (fun a (n, _) -> max a (String.length n)) 0 cs in
    List.iter (fun (n, v) -> Buffer.add_string b (Printf.sprintf "  %-*s %d\n" width n v)) cs
  end;
  List.iter
    (fun (n, sm) ->
      if sm.n > 0 then
        Buffer.add_string b
          (Printf.sprintf "  %s: n=%d mean=%d p50<=%d p90<=%d p99<=%d max=%d\n" n sm.n
             (sm.sum / sm.n) sm.p50 sm.p90 sm.p99 sm.max))
    (histograms s);
  let evs = recent s in
  let seq = locked s.lock (fun () -> s.seq) in
  if evs <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "  recent events (%d total, newest first):\n" seq);
    List.iteri
      (fun i (seq, e) ->
        if i < max_events then
          Buffer.add_string b (Printf.sprintf "    #%-5d %s\n" seq (event_to_string e)))
      evs
  end;
  Buffer.contents b
