(* Compressed sequence representations head-to-head: balanced wavelet
   tree vs Huffman-shaped wavelet tree vs the alphabet-partitioned
   structure of Appendix A.6 / [3].  These are the rank/select/access
   engines inside every index here; the paper's Section 4 plugs [3] into
   the Transformations, and A.6 shows how to build it.

   The second half benches the *dynamic* substrate those engines run on
   when the collection mutates: the SPSI B-tree (Spsi) on a mixed
   insert/delete/rank/select stream, per-op-class throughput and
   bits/symbol emitted as a BENCH JSON row.
   DSDG_BENCH_QUICK=1 shrinks both halves to CI size. *)

open Dsdg_wavelet
open Dsdg_entropy

type seq_impl = {
  sname : string;
  access : int -> int;
  rank : int -> int -> int;
  select : int -> int -> int;
  space : int;
}

let impls (a : int array) sigma =
  let wt = Wavelet_tree.build ~sigma a in
  let hw = Huffman_wavelet.build ~sigma a in
  let ap = Alphabet_partition.build ~sigma a in
  [
    { sname = "balanced wavelet"; access = Wavelet_tree.access wt;
      rank = Wavelet_tree.rank wt; select = Wavelet_tree.select wt;
      space = Wavelet_tree.space_bits wt };
    { sname = "huffman wavelet"; access = Huffman_wavelet.access hw;
      rank = Huffman_wavelet.rank hw; select = Huffman_wavelet.select hw;
      space = Huffman_wavelet.space_bits hw };
    { sname = "alphabet partition (A.6)"; access = Alphabet_partition.access ap;
      rank = Alphabet_partition.rank ap; select = Alphabet_partition.select ap;
      space = Alphabet_partition.space_bits ap };
  ]

let quick () = Sys.getenv_opt "DSDG_BENCH_QUICK" <> None

(* --- dynamic substrate: SPSI B-tree --- *)

(* One mixed stream: grow to [n] bits with
   inserts at random positions, interleaving deletes, rank1 and select1
   along the way (roughly 62% insert / 12% delete / 16% rank / 10%
   select).  Each op class gets its own accumulated wall-clock, so the
   row reports ops/s per class out of one realistic interleaving rather
   than four artificially segregated phases. *)
let dynamic_stream n =
  let open Dsdg_dynseq in
  let bv = Spsi.create () in
  let st = Random.State.make [| 73; n |] in
  let ins_ns = ref 0. and del_ns = ref 0. and rank_ns = ref 0. and sel_ns = ref 0. in
  let ins_n = ref 0 and del_n = ref 0 and rank_n = ref 0 and sel_n = ref 0 in
  let sink = ref 0 in
  let timed acc_ns acc_n f =
    let t0 = Bench_util.now_ns () in
    f ();
    let t1 = Bench_util.now_ns () in
    acc_ns := !acc_ns +. Int64.to_float (Int64.sub t1 t0);
    incr acc_n
  in
  while Spsi.len bv < n do
    let len = Spsi.len bv in
    let r = Random.State.float st 1.0 in
    if r < 0.62 || len < 64 then
      let pos = Random.State.int st (len + 1) in
      let b = Random.State.bool st in
      timed ins_ns ins_n (fun () -> Spsi.insert bv pos b)
    else if r < 0.74 then
      let pos = Random.State.int st len in
      timed del_ns del_n (fun () -> Spsi.delete bv pos)
    else if r < 0.90 then
      let pos = Random.State.int st len in
      timed rank_ns rank_n (fun () -> sink := !sink + Spsi.rank1 bv pos)
    else begin
      let ones = Spsi.ones bv in
      if ones > 0 then
        let k = Random.State.int st ones in
        timed sel_ns sel_n (fun () -> sink := !sink + Spsi.select1 bv k)
    end
  done;
  ignore (Sys.opaque_identity !sink);
  let ops_s ns cnt = if ns <= 0. then nan else float_of_int cnt /. (ns /. 1e9) in
  ( Spsi.space_bits bv,
    Spsi.len bv,
    [ ("insert", ops_s !ins_ns !ins_n, !ins_n);
      ("delete", ops_s !del_ns !del_n, !del_n);
      ("rank", ops_s !rank_ns !rank_n, !rank_n);
      ("select", ops_s !sel_ns !sel_n, !sel_n) ] )

let run_dynamic () =
  let n = if quick () then 100_000 else 1_000_000 in
  Printf.printf "\n[sequences/dynamic] mixed stream to n=%d bits\n%!" n;
  let space, len, classes = dynamic_stream n in
  let bps = float_of_int space /. float_of_int len in
  Bench_util.emit_json_row ~bench:"sequences"
    ([ ("section", Bench_util.S "dynamic");
       ("backend", Bench_util.S "spsi");
       ("n", Bench_util.I len);
       ("bits_per_symbol", Bench_util.F bps) ]
    @ List.map (fun (op, ops_s, _) -> (op ^ "_ops_s", Bench_util.F ops_s)) classes);
  Bench_util.print_table
    ~title:(Printf.sprintf "Dynamic bitvector substrate, %d-bit mixed stream" n)
    ~header:[ "backend"; "insert/s"; "delete/s"; "rank/s"; "select/s"; "bits/sym" ]
    [ "spsi" :: List.map (fun (_, ops_s, _) -> Printf.sprintf "%.0f" ops_s) classes
      @ [ Printf.sprintf "%.2f" bps ] ]

let run () =
  let st = Random.State.make [| 61 |] in
  let n = (if quick () then 50_000 else 200_000) and sigma = 200 in
  (* Zipf-ish symbol distribution: low H0 relative to log sigma *)
  let a =
    Array.init n (fun _ ->
        let z = Dsdg_workload.Text_gen.zipf st ~max:sigma in
        z - 1)
  in
  let h0 = Entropy.h0_ints a in
  Printf.printf "\n[sequences] n=%d sigma=%d H0=%.2f (log sigma = %.2f)\n" n sigma h0
    (log (float_of_int sigma) /. log 2.);
  let queries = Array.init 2000 (fun _ -> Random.State.int st n) in
  let syms = Array.init 2000 (fun _ -> a.(Random.State.int st n)) in
  let sink = ref 0 in
  let rows =
    List.map
      (fun impl ->
        let acc_ns =
          Bench_util.per_op ~iters:20 (fun () ->
              Array.iter (fun q -> sink := !sink + impl.access q) queries)
          /. 2000.
        in
        let rank_ns =
          Bench_util.per_op ~iters:20 (fun () ->
              Array.iteri (fun i c -> sink := !sink + impl.rank c queries.(i)) syms)
          /. 2000.
        in
        let sel_ns =
          Bench_util.per_op ~iters:20 (fun () ->
              Array.iter (fun c -> sink := !sink + impl.select c 0) syms)
          /. 2000.
        in
        [ impl.sname; Bench_util.ns_str acc_ns; Bench_util.ns_str rank_ns;
          Bench_util.ns_str sel_ns; Bench_util.bits_per_sym impl.space n ])
      (impls a sigma)
  in
  Bench_util.print_table
    ~title:
      (Printf.sprintf
         "Sequence representations  [expect huffman & A.6 near H0=%.2f bits/sym; balanced near log sigma]"
         h0)
    ~header:[ "representation"; "access"; "rank"; "select"; "bits/sym" ]
    rows;
  run_dynamic ()
