(* Seeded workload inputs.

   Seed 0 is the default: it rebuilds exactly the instances of
   [Kernels.paper_suite] and [Kernels.test_suite] (graph 0xEEC0, hist 7,
   thr 11, mm 13, fw 17, sort 19, spmv 23; small graph 42). Any other
   seed derives fresh data seeds from those bases and relabels each
   graph's nodes. *)

open Dae_workloads

let derive ~seed ~salt base =
  if seed = 0 && salt = 0 then base
  else Hashtbl.hash (base, seed, salt) land 0x3FFF_FFFF

(* A seeded isomorphic copy of [g]: node labels permuted with node 0 (the
   kernels' source) fixed, edge order kept. Every kernel runs the same
   invocations, relaxations and same-address patterns on it, so every
   seed does the same graph work, at different addresses: scratchpad
   timing cannot tell the copies apart, the cache hierarchy can. *)
let relabel ~seed (g : Graph.t) =
  if seed = 0 then g
  else begin
    let n = g.Graph.nodes in
    let rng = Rng.create (derive ~seed ~salt:1 n) in
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 2 do
      let j = 1 + Rng.int rng i in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    let map = Array.map (fun v -> perm.(v)) in
    { g with Graph.src = map g.Graph.src; dst = map g.Graph.dst }
  end

let graph ~seed ~base ~nodes ~edges ~max_weight =
  relabel ~seed (Graph.generate ~seed:base ~nodes ~edges ~max_weight)

(* Table 1 / Figure 6 sizes: the definition of [Kernels.paper_suite] with
   every data seed drawn from [seed]. *)
let paper_suite ~seed =
  let g = graph ~seed ~base:0xEEC0 ~nodes:1005 ~edges:25571 ~max_weight:15 in
  let s base = derive ~seed ~salt:0 base in
  Kernels.
    [
      bfs ~graph:g ();
      bc ~graph:g ();
      sssp ~graph:g ~max_rounds:6 ();
      hist ~seed:(s 7) ();
      thr ~seed:(s 11) ();
      mm ~seed:(s 13) ();
      fw ~seed:(s 17) ();
      sort ~seed:(s 19) ();
      spmv ~seed:(s 23) ();
    ]

(* The reduced sizes of [Kernels.test_suite], seeded the same way. *)
let quick_suite ~seed =
  let g = graph ~seed ~base:42 ~nodes:24 ~edges:80 ~max_weight:9 in
  let s base = derive ~seed ~salt:0 base in
  Kernels.
    [
      bfs ~graph:g ();
      bc ~graph:g ();
      sssp ~graph:g ~max_rounds:4 ();
      hist ~n:60 ~buckets:8 ~cap:12 ~seed:(s 7) ();
      thr ~n:50 ~seed:(s 11) ();
      mm ~left:12 ~right:12 ~m:60 ~seed:(s 13) ();
      fw ~n:5 ~seed:(s 17) ();
      sort ~n:8 ~seed:(s 19) ();
      spmv ~rows:6 ~cols:6 ~nnz:30 ~clamp:25 ~seed:(s 23) ();
    ]

(* The graph kernels of the hierarchy workload, on a seeded graph. *)
let hier_graph ~seed ~nodes ~edges =
  let g = graph ~seed ~base:0x41E2 ~nodes ~edges ~max_weight:15 in
  Kernels.[ bfs ~graph:g (); bc ~graph:g (); sssp ~graph:g ~max_rounds:6 () ]

(* A built kernel: IR, memory image and invocation list materialized up
   front, so the timed phase measures none of the input construction. *)
type built = {
  kernel : Kernels.t;
  func : Dae_ir.Func.t;
  mem : Dae_ir.Interp.Memory.t;
  invocations : Dae_sim.Machine.invocation list;
}

let build (k : Kernels.t) =
  {
    kernel = k;
    func = k.Kernels.build ();
    mem = k.Kernels.init_mem ();
    invocations = k.Kernels.invocations ();
  }

(* Generated CFGs for the compile/analysis workload: many mid-sized
   bodies (at most 10 statements), so the analysis cost of a seed's set
   varies little from seed to seed. *)
let generated ~seed ~count =
  List.init count (fun i -> Gen.generate ~seed:(derive ~seed ~salt:(i + 1) 0x6E4) ~max_stmts:10 ())
