(* Evaluation harness: regenerates every table and figure of the paper's
   §8 from the simulator, plus the ablations DESIGN.md calls out and a set
   of Bechamel micro-benchmarks of the compiler passes themselves.

     dune exec bench/main.exe                       # everything
     dune exec bench/main.exe -- fig6 table1        # some sections
     dune exec bench/main.exe -- --section fig6 --section table1   # same
     dune exec bench/main.exe -- --jobs 4 --json out.json fig6
     dune exec bench/main.exe -- --quick            # fig6 on small kernels
     sections: fig6 table1 table2 fig7 ablation sizing leak sweep mem mlp
     micro smoke

   Every section first *declares* its simulation jobs (kernel × arch ×
   config); the distinct jobs are fanned out once over a work-stealing
   domain pool (Dae_sim.Runner), so sections that share points (fig6 and
   table1 use the same paper-suite runs) pay for them once. Every job
   rides one cached path, Dae_dse.Sweep's evaluator: one plan and one
   functional execution per kernel × arch × partition (memoized per
   domain), each configuration a replay of the stored traces, and every
   verdict kept in the on-disk result cache (--cache-dir), so a warm
   bench executes nothing; the sizing section probes the same jobs.
   --no-cache gives the cold timings a BENCH_N.json records. The per-job
   results — cycles,
   mis-speculation rate, area, wall-clock, GC pressure, the pool's own
   scheduling statistics (per-domain utilization, steal counts), and the
   channel-sizing analyzer's per-channel minimum depths and deadlock
   verdict — are written to BENCH_10.json (with per-section job counts
   and wall-clocks) so the perf trajectory is machine-readable. The leak section adds the static speculative-leakage census
   (taint sources and leak sites per kernel and mode; `daec leak`'s
   verdicts). The mlp section re-runs DAE on the graph/irregular kernels
   under the cache hierarchy at 1, 2 and the partitioner's natural N
   access units (jobs keyed with a `#uN` suffix). The sweep section
   additionally runs the re-timing DSE engine cold and warm — over both
   the capacity grid and the hierarchy grid — and records every pass's
   throughput and hit rate (the hierarchy warm pass must hit on at least
   95% of its points).

   --quick swaps the paper suite for the small test-suite instances and
   runs fig6 only: a seconds-long sweep whose cycle counts are pinned
   byte-for-byte by the @ci bench-quick rule (bench/bench_quick.expected),
   so any accidental timing-model change fails the build.

   Cycle counts are this repository's simulator, not the paper's ModelSim
   runs; EXPERIMENTS.md records the side-by-side comparison of shapes. *)

open Dae_workloads

let archs =
  [ Dae_sim.Machine.Sta; Dae_sim.Machine.Dae; Dae_sim.Machine.Spec;
    Dae_sim.Machine.Oracle ]

(* --quick: the small test-suite kernel instances instead of the paper
   sizes, fig6 only — deterministic cycle counts in seconds, pinned by the
   @ci bench-quick rule. *)
let quick = ref false

let bench_suite () =
  if !quick then Kernels.test_suite () else Kernels.paper_suite ()

(* --- simulation jobs -------------------------------------------------------- *)

type sim_out = {
  o_kernel : string; (* kernel instance id, e.g. "hist" or "nest4~n400" *)
  o_arch : string;
  o_cfg : string;
  o_cycles : int;
  o_misspec : float;
  o_area_total : int;
  o_area_cu : int;
  o_area_agu : int;
  o_pblk : int;
  o_pcall : int;
  o_killed : int;
  o_committed : int;
  o_stats : (string * (string * int) list) list;
      (* per-unit cycle attribution, the complete partition *)
  o_check_errors : int; (* soundness-checker diagnostics on the compile *)
  o_check_warnings : int;
  o_min_depths : (string * int) list; (* sizing analyzer minimum per channel *)
  o_sizing_verdict : string; (* deadlock-free | deadlock | skipped | n/a *)
  o_wall_s : float;
  (* GC pressure of this job (Gc.quick_stat deltas around the run) *)
  o_gc_minor_words : float;
  o_gc_major_words : float;
  o_gc_minor_collections : int;
  o_gc_major_collections : int;
}

type sim_req = {
  r_key : string;
  r_kernel : string;
  r_arch : Dae_sim.Machine.arch;
  r_cfg : Dae_sim.Config.t;
  r_partition : Dae_core.Decouple.assignment option; (* N-way access DAG *)
  r_mk : unit -> Kernels.t; (* built fresh in the worker domain *)
}

let req ?(cfg = Dae_sim.Config.default) ?partition ~kernel ~arch mk =
  {
    r_key =
      Printf.sprintf "%s:%s:%s%s" kernel
        (Dae_sim.Machine.arch_name arch)
        (Dae_sim.Config.key cfg)
        (match partition with
        | None -> ""
        | Some (a : Dae_core.Decouple.assignment) ->
          Printf.sprintf "#u%d" a.Dae_core.Decouple.n_access);
    r_kernel = kernel;
    r_arch = arch;
    r_cfg = cfg;
    r_partition = partition;
    r_mk = mk;
  }

(* config-dependent but simulation-free derivations of the job's plan *)
let pipeline_facts ~cfg (p : Dae_core.Pipeline.t option) =
  let pblk, pcall =
    match p with
    | Some p ->
      (Dae_core.Pipeline.poison_block_count p,
       Dae_core.Pipeline.poison_call_count p)
    | None -> (0, 0)
  in
  let check_errors, check_warnings =
    match p with
    | Some p ->
      let ds = Dae_analysis.Checker.run p in
      (Dae_analysis.Diag.errors ds, Dae_analysis.Diag.warnings ds)
    | None -> (0, 0)
  in
  let min_depths, sizing_verdict =
    match p with
    | None -> ([], "n/a")
    | Some p -> (
      match Dae_analysis.Sizing.analyze ~cfg p with
      | Error _ -> ([], "skipped")
      | Ok sz ->
        ( List.map
            (fun (s : Dae_analysis.Sizing.sized) ->
              ( Dae_analysis.Channel.name
                  s.Dae_analysis.Sizing.sz_chan.Dae_analysis.Channel.kind,
                s.Dae_analysis.Sizing.sz_min ))
            sz.Dae_analysis.Sizing.channels,
          if Dae_analysis.Sizing.deadlocks sz then "deadlock"
          else "deadlock-free" ))
  in
  (pblk, pcall, check_errors, check_warnings, min_depths, sizing_verdict)

(* --- every job rides the cached evaluator ------------------------------------- *)

(* Each job is one Sweep.eval point (see the header). Machine.simulate is
   itself plan + prepare + simulate, so sharing one prepare across points
   replays exactly what a per-point Machine.simulate would. *)

(* set by the driver from --no-cache / --cache-dir before the pool runs *)
let bench_cache = ref (Dae_sim.Cache.disabled ())

(* one evaluator job per (kernel, arch, partition) — the config is not
   part of the identity. A kernel id names one kernel within a run: a
   bare suite name is always the bench suite's kernel (under --quick
   too); any other instance carries its parameters in its id. *)
let job_key (r : sim_req) =
  Printf.sprintf "%s:%s%s" r.r_kernel
    (Dae_sim.Machine.arch_name r.r_arch)
    (match r.r_partition with
    | None -> ""
    | Some (a : Dae_core.Decouple.assignment) ->
      Printf.sprintf "#u%d" a.Dae_core.Decouple.n_access)

(* representative request per job key; filled (then read-only) by the
   driver before the pool fans out *)
let job_reqs : (string, sim_req) Hashtbl.t = Hashtbl.create 32

let suite_tag () = if !quick then "quick/" else "paper/"

(* The cache instance is the job's kernel id, not the kernel's name:
   table2's hist~r10..r50 and the ablation's bfs~g128e1200 reuse the
   names (and possibly the plan digests) of other jobs' kernels. *)
let job_for =
  Dae_sim.Runner.memoize (fun jkey ->
      let r = Hashtbl.find job_reqs jkey in
      let w =
        {
          (Dae_dse.Sweep.workload_of_kernel ~suite:"paper" (r.r_mk ())) with
          Dae_dse.Sweep.w_instance = suite_tag () ^ r.r_kernel;
        }
      in
      Dae_dse.Sweep.job ~cache:!bench_cache w
        (Dae_sim.Retime.plan ?partition:r.r_partition r.r_arch
           w.Dae_dse.Sweep.w_func))

let run_req (r : sim_req) : sim_out =
  let t0 = Unix.gettimeofday () in
  let g0 = Gc.quick_stat () in
  Dae_sim.Config.validate r.r_cfg;
  let job = job_for (job_key r) in
  let pt = Dae_dse.Sweep.eval job r.r_cfg in
  let cycles =
    match pt.Dae_dse.Sweep.pt_status with
    | Dae_dse.Sweep.Cycles c -> c
    | Dae_dse.Sweep.Deadlock ->
      Fmt.failwith "%s/%s deadlocked at %s" r.r_kernel
        (Dae_sim.Machine.arch_name r.r_arch)
        pt.Dae_dse.Sweep.pt_cfg
  in
  (* everything else is simulation-free: compile-level facts from the
     plan, area from the configuration *)
  let plan = Dae_dse.Sweep.job_plan job in
  let area = Dae_sim.Retime.area plan ~cfg:r.r_cfg in
  let pblk, pcall, check_errors, check_warnings, min_depths, sizing_verdict =
    pipeline_facts ~cfg:r.r_cfg (Dae_sim.Retime.pipeline plan)
  in
  let killed = pt.Dae_dse.Sweep.pt_killed
  and committed = pt.Dae_dse.Sweep.pt_committed in
  let g1 = Gc.quick_stat () in
  {
    o_kernel = r.r_kernel;
    o_arch = Dae_sim.Machine.arch_name r.r_arch;
    o_cfg = pt.Dae_dse.Sweep.pt_cfg;
    o_cycles = cycles;
    o_misspec =
      (if killed + committed = 0 then 0.0
       else float_of_int killed /. float_of_int (killed + committed));
    o_area_total = area.Dae_sim.Area.total;
    o_area_cu = area.Dae_sim.Area.cu;
    o_area_agu = area.Dae_sim.Area.agu;
    o_pblk = pblk;
    o_pcall = pcall;
    o_killed = killed;
    o_committed = committed;
    o_stats = pt.Dae_dse.Sweep.pt_stats;
    o_check_errors = check_errors;
    o_check_warnings = check_warnings;
    o_min_depths = min_depths;
    o_sizing_verdict = sizing_verdict;
    o_wall_s = Unix.gettimeofday () -. t0;
    o_gc_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    o_gc_major_words = g1.Gc.major_words -. g0.Gc.major_words;
    o_gc_minor_collections =
      g1.Gc.minor_collections - g0.Gc.minor_collections;
    o_gc_major_collections =
      g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* Filled once by the pool; sections read it through [get]. *)
let table : (string, sim_out) Hashtbl.t = Hashtbl.create 128

let get r =
  match Hashtbl.find_opt table r.r_key with
  | Some o -> o
  | None -> Fmt.failwith "bench: job %s was not scheduled" r.r_key

let harmonic_mean xs =
  let xs = List.filter (fun x -> x > 0.) xs in
  float_of_int (List.length xs) /. List.fold_left (fun a x -> a +. (1. /. x)) 0. xs

(* --- Figure 6 / Table 1: the paper suite over all four architectures ------- *)

(* a bench-suite kernel, rebuilt by name in the worker domain *)
let suite_kernel name () =
  match Kernels.by_name (bench_suite ()) name with
  | Some k -> k
  | None -> Fmt.failwith "bench: no suite kernel %s" name

let suite_req ?cfg name arch = req ?cfg ~kernel:name ~arch (suite_kernel name)

let suite_reqs () =
  List.concat_map
    (fun (k : Kernels.t) ->
      List.map (suite_req k.Kernels.name) archs)
    (bench_suite ())


let fig6_print () =
  Fmt.pr "@.== Figure 6: performance normalized to STA (higher is better) ==@.";
  Fmt.pr "%-6s %10s %10s %10s@." "kernel" "DAE" "SPEC" "ORACLE";
  let speedups = ref [] in
  List.iter
    (fun (k : Kernels.t) ->
      let cycles arch =
        float_of_int (get (suite_req k.Kernels.name arch)).o_cycles
      in
      let sta = cycles Dae_sim.Machine.Sta in
      let norm arch = sta /. cycles arch in
      let spec = norm Dae_sim.Machine.Spec in
      speedups := spec :: !speedups;
      Fmt.pr "%-6s %9.2fx %9.2fx %9.2fx@." k.Kernels.name
        (norm Dae_sim.Machine.Dae) spec
        (norm Dae_sim.Machine.Oracle))
    (bench_suite ());
  Fmt.pr "SPEC harmonic-mean speedup over STA: %.2fx (paper: 1.9x avg, up to 3x)@."
    (harmonic_mean !speedups)

let table1_print () =
  Fmt.pr "@.== Table 1: absolute performance and area ==@.";
  Fmt.pr "%-6s %6s %6s %8s | %10s %10s %10s %10s | %7s %7s %7s %7s@."
    "kernel" "pblk" "pcall" "misspec" "STA" "DAE" "SPEC" "ORACLE" "aSTA"
    "aDAE" "aSPEC" "aORA";
  let ratios = ref ([], [], [], [], [], []) in
  List.iter
    (fun (k : Kernels.t) ->
      let out arch = get (suite_req k.Kernels.name arch) in
      let cycles a = (out a).o_cycles in
      let area a = (out a).o_area_total in
      let spec = out Dae_sim.Machine.Spec in
      Fmt.pr "%-6s %6d %6d %7.0f%% | %10d %10d %10d %10d | %7d %7d %7d %7d@."
        k.Kernels.name spec.o_pblk spec.o_pcall
        (100. *. spec.o_misspec)
        (cycles Dae_sim.Machine.Sta) (cycles Dae_sim.Machine.Dae)
        (cycles Dae_sim.Machine.Spec) (cycles Dae_sim.Machine.Oracle)
        (area Dae_sim.Machine.Sta) (area Dae_sim.Machine.Dae)
        (area Dae_sim.Machine.Spec) (area Dae_sim.Machine.Oracle);
      let f = float_of_int in
      let c0 = f (cycles Dae_sim.Machine.Sta) in
      let a0 = f (area Dae_sim.Machine.Sta) in
      let cd, cs, co, ad, as_, ao = !ratios in
      ratios :=
        ( (f (cycles Dae_sim.Machine.Dae) /. c0) :: cd,
          (f (cycles Dae_sim.Machine.Spec) /. c0) :: cs,
          (f (cycles Dae_sim.Machine.Oracle) /. c0) :: co,
          (f (area Dae_sim.Machine.Dae) /. a0) :: ad,
          (f (area Dae_sim.Machine.Spec) /. a0) :: as_,
          (f (area Dae_sim.Machine.Oracle) /. a0) :: ao ))
    (bench_suite ());
  let cd, cs, co, ad, as_, ao = !ratios in
  Fmt.pr
    "Harmonic means vs STA — cycles: DAE %.2f SPEC %.2f ORACLE %.2f; area: \
     DAE %.2f SPEC %.2f ORACLE %.2f@."
    (harmonic_mean cd) (harmonic_mean cs) (harmonic_mean co)
    (harmonic_mean ad) (harmonic_mean as_) (harmonic_mean ao);
  Fmt.pr "(paper: cycles 3.2 / 0.51 / 0.48; area 1.16 / 1.42 / 1.36)@."

(* --- Table 2: mis-speculation cost ------------------------------------------- *)

let table2_variants =
  [
    ("hist", fun rate -> Misspec.hist ~rate_percent:rate ());
    ("thr", fun rate -> Misspec.thr ~rate_percent:rate ());
    ("mm", fun rate -> Misspec.mm ~rate_percent:rate ());
  ]

let table2_req name variant rate =
  req
    ~kernel:(Printf.sprintf "%s~r%d" name rate)
    ~arch:Dae_sim.Machine.Spec
    (fun () -> variant rate)

let table2_reqs () =
  List.concat_map
    (fun (name, variant) ->
      List.map (fun rate -> table2_req name variant rate) Misspec.rates)
    table2_variants

let table2_print () =
  Fmt.pr "@.== Table 2: SPEC cycles as the mis-speculation rate changes ==@.";
  Fmt.pr "%-6s" "kernel";
  List.iter (fun r -> Fmt.pr " %8d%%" r) Misspec.rates;
  Fmt.pr " %8s@." "sigma";
  List.iter
    (fun (name, variant) ->
      Fmt.pr "%-6s" name;
      let cycles =
        List.map
          (fun rate ->
            float_of_int (get (table2_req name variant rate)).o_cycles)
          Misspec.rates
      in
      List.iter (fun c -> Fmt.pr " %9.0f" c) cycles;
      let n = float_of_int (List.length cycles) in
      let mean = List.fold_left ( +. ) 0. cycles /. n in
      let sigma =
        sqrt
          (List.fold_left (fun a c -> a +. ((c -. mean) ** 2.)) 0. cycles /. n)
      in
      Fmt.pr " %8.0f@." sigma)
    table2_variants;
  Fmt.pr "(paper: no correlation between rate and cycles; sigma 16-21)@."

(* --- Figure 7: nested control flow overhead ----------------------------------- *)

let fig7_depths = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let fig7_req depth arch =
  req
    ~kernel:(Printf.sprintf "nest%d~n400" depth)
    ~arch
    (fun () -> Synthetic.workload ~n:400 ~depth ())

let fig7_reqs () =
  List.concat_map
    (fun d -> [ fig7_req d Dae_sim.Machine.Spec; fig7_req d Dae_sim.Machine.Oracle ])
    fig7_depths

let fig7_print () =
  Fmt.pr
    "@.== Figure 7: SPEC overhead over ORACLE vs poison blocks (nested ifs) \
     ==@.";
  Fmt.pr "%-6s %6s %6s %10s %10s %10s@." "depth" "pblk" "pcall" "perf-ovh"
    "CU-area" "AGU-area";
  List.iter
    (fun depth ->
      let spec = get (fig7_req depth Dae_sim.Machine.Spec) in
      let oracle = get (fig7_req depth Dae_sim.Machine.Oracle) in
      let pct a b = 100. *. (float_of_int a /. float_of_int b -. 1.) in
      Fmt.pr "%-6d %6d %6d %9.1f%% %9.1f%% %9.1f%%@." depth spec.o_pblk
        spec.o_pcall
        (pct spec.o_cycles oracle.o_cycles)
        (pct spec.o_area_cu oracle.o_area_cu)
        (pct spec.o_area_agu oracle.o_area_agu))
    fig7_depths;
  Fmt.pr
    "(paper: perf overhead ~0%%; CU area grows <5%% per poison block, <25%% \
     at depth 8; AGU ~0%%)@."

(* --- ablations ------------------------------------------------------------------ *)

let ablation_sqs = [ 2; 4; 8; 16; 32; 64 ]
let ablation_lats = [ 1; 2; 4; 8 ]
let ablation_widths = [ 1; 2; 4; 8 ]

let ablation_sq_req sq =
  let cfg = { Dae_sim.Config.default with Dae_sim.Config.store_queue_size = sq } in
  req ~cfg ~kernel:"bfs~g128e1200" ~arch:Dae_sim.Machine.Spec (fun () ->
      Kernels.bfs ~graph:(Graph.small ~nodes:128 ~edges:1200 ()) ())

let ablation_lat_req arch l =
  let cfg = { Dae_sim.Config.default with Dae_sim.Config.fifo_latency = l } in
  suite_req ~cfg "hist" arch

let ablation_vw_kernels =
  [
    ("thr", "thr", suite_kernel "thr");
    (* six mostly-killed store requests per iteration on one channel:
       exactly the "vector of speculative requests + store mask" shape
       §10 sketches — kills need no memory port, so the channel and kill
       bandwidth are the whole story *)
    ( "nest6", "nest6~n500p15",
      fun () -> Synthetic.workload ~n:500 ~depth:6 ~pass_percent:15 () );
    ( "bc", "bc~g64e400",
      fun () -> Kernels.bc ~graph:(Graph.small ~nodes:64 ~edges:400 ()) () );
  ]

let ablation_vw_req (_, id, mk) v =
  let cfg = { Dae_sim.Config.default with Dae_sim.Config.vector_width = v } in
  req ~cfg ~kernel:id ~arch:Dae_sim.Machine.Spec mk

let ablation_reqs () =
  List.map ablation_sq_req ablation_sqs
  @ List.concat_map
      (fun l ->
        [ ablation_lat_req Dae_sim.Machine.Dae l;
          ablation_lat_req Dae_sim.Machine.Spec l ])
      ablation_lats
  @ List.concat_map
      (fun k -> List.map (ablation_vw_req k) ablation_widths)
      ablation_vw_kernels

let ablation_print () =
  Fmt.pr "@.== Ablation: store queue size vs SPEC cycles (§8.2.1) ==@.";
  Fmt.pr "%-6s" "SQ";
  List.iter (fun sq -> Fmt.pr " %8d" sq) ablation_sqs;
  Fmt.pr "@.%-6s" "cycles";
  List.iter
    (fun sq -> Fmt.pr " %8d" (get (ablation_sq_req sq)).o_cycles)
    ablation_sqs;
  Fmt.pr
    "@.(mis-speculated allocations fill a small SQ and stall later loads — \
     the bfs/bc SPEC-vs-ORACLE gap)@.";

  Fmt.pr "@.== Ablation: FIFO latency vs DAE round trip ==@.";
  Fmt.pr "%-10s" "fifo lat";
  List.iter (fun l -> Fmt.pr " %8d" l) ablation_lats;
  Fmt.pr "@.%-10s" "DAE";
  List.iter
    (fun l ->
      Fmt.pr " %8d" (get (ablation_lat_req Dae_sim.Machine.Dae l)).o_cycles)
    ablation_lats;
  Fmt.pr "@.%-10s" "SPEC";
  List.iter
    (fun l ->
      Fmt.pr " %8d" (get (ablation_lat_req Dae_sim.Machine.Spec l)).o_cycles)
    ablation_lats;
  Fmt.pr
    "@.(the synchronized DAE AGU pays every extra cycle of channel latency \
     per iteration; the speculative AGU hides it)@.";

  Fmt.pr "@.== Ablation: poison-block merging (§5.3) on CU area ==@.";
  Fmt.pr "%-8s %12s %12s %8s@." "kernel" "merged-area" "unmerged" "saved";
  List.iter
    (fun depth ->
      let k = Synthetic.workload ~n:100 ~depth () in
      let area merge =
        let p =
          Dae_core.Pipeline.compile ~mode:Dae_core.Pipeline.Spec ~merge
            (k.Kernels.build ())
        in
        (Dae_sim.Area.decoupled p).Dae_sim.Area.cu
      in
      let m = area true and u = area false in
      Fmt.pr "%-8s %12d %12d %7.1f%%@."
        (Fmt.str "nest%d" depth)
        m u
        (100. *. (1. -. (float_of_int m /. float_of_int u))))
    [ 2; 4; 6 ];
  let k = Kernels.mm ~left:40 ~right:40 ~m:200 () in
  let area merge =
    let p =
      Dae_core.Pipeline.compile ~mode:Dae_core.Pipeline.Spec ~merge
        (k.Kernels.build ())
    in
    (Dae_sim.Area.decoupled p).Dae_sim.Area.cu
  in
  Fmt.pr "%-8s %12d %12d %7.1f%%@." "mm" (area true) (area false)
    (100. *. (1. -. (float_of_int (area true) /. float_of_int (area false))));

  Fmt.pr "@.== Ablation: vectorized speculative requests (paper §10) ==@.";
  Fmt.pr "%-8s" "width";
  List.iter (fun v -> Fmt.pr " %8d" v) ablation_widths;
  Fmt.pr "@.";
  List.iter
    (fun ((name, _, _) as k) ->
      Fmt.pr "%-8s" name;
      List.iter
        (fun v -> Fmt.pr " %8d" (get (ablation_vw_req k v)).o_cycles)
        ablation_widths;
      Fmt.pr "@.")
    ablation_vw_kernels;
  Fmt.pr
    "(a vector of requests per cycle with a CU store mask lifts the \
     per-channel port and kill limits; the SRAM ports stay scalar — \
     load-port-bound kernels like thr are unaffected)@.";

  Fmt.pr "@.== Ablation: partial if-conversion (§9) ==@.";
  (* a branchy elementwise max: its diamond is pure, so if-conversion
     flattens it to a select and drops two scheduler states *)
  let branchy_max () =
    let open Dae_ir in
    let b = Builder.create ~name:"vmax" ~params:[ "n" ] in
    let (_ : Dae_ir.Types.operand list) =
      Builder.counted_loop b ~n:(Builder.param b "n") (fun b ~i ~carried:_ ->
          let x = Builder.load b "xa" i in
          let y = Builder.load b "ya" i in
          let c = Builder.cmp b Instr.Sgt x y in
          let m =
            match
              Builder.if_values b c ~tys:[ Dae_ir.Types.I32 ]
                ~then_:(fun _ -> [ x ])
                ~else_:(fun _ -> [ y ])
            with
            | [ m ] -> m
            | _ -> assert false
          in
          Builder.store b "out" ~idx:i ~value:m;
          [])
    in
    Builder.seal b
  in
  let f = branchy_max () in
  let before_blocks = List.length f.Dae_ir.Func.layout in
  let sta_before = Dae_sim.Sta.analyze f in
  let flattened = Dae_ir.If_convert.run f in
  ignore (Dae_ir.Const_fold.run f);
  Dae_ir.Simplify.run f;
  Dae_ir.Verify.check_exn f;
  let sta_after = Dae_sim.Sta.analyze f in
  Fmt.pr
    "vmax: %d -> %d blocks (%d diamond flattened); STA pipeline depth %d -> \
     %d; area %d -> %d@."
    before_blocks
    (List.length f.Dae_ir.Func.layout)
    flattened sta_before.Dae_sim.Sta.pipeline_depth
    sta_after.Dae_sim.Sta.pipeline_depth
    (Dae_sim.Area.sta (branchy_max ())).Dae_sim.Area.total
    (Dae_sim.Area.sta f).Dae_sim.Area.total

(* --- channel-sizing sweep: the static analyzer vs the simulator -------------- *)

(* For every suite kernel in both decoupled modes: run the sizing
   analyzer at the default config, re-simulate at the analyzer's minimum
   safe depths (must complete deadlock-free within the predicted cycle
   bound), then decrement the critical channel's class knob below its
   minimum and confirm the simulator either trips its dynamic deadlock
   detector or degrades rather than completing faster. Both probes are
   Sweep.validate_sizing on fig6's job for the kernel, sharing cache
   entries with `daec size --validate`. *)
let sizing_modes = [ ("dae", Dae_sim.Machine.Dae); ("spec", Dae_sim.Machine.Spec) ]

let sizing_reqs () =
  List.concat_map
    (fun (k : Kernels.t) ->
      List.map (fun (_, arch) -> suite_req k.Kernels.name arch) sizing_modes)
    (bench_suite ())

let sizing_print () =
  Fmt.pr "@.== Channel sizing: static minimums cross-validated in the sim ==@.";
  Fmt.pr "%-6s %-5s %4s %8s %-14s %10s %12s  %s@." "kernel" "mode" "min"
    "matched" "critical" "cyc@min" "bound" "critical at min-1";
  List.iter
    (fun (k : Kernels.t) ->
      List.iter
        (fun (mname, arch) ->
          let job = job_for (job_key (suite_req k.Kernels.name arch)) in
          (* a decoupled plan always carries its pipeline *)
          let p =
            Option.get (Dae_sim.Retime.pipeline (Dae_dse.Sweep.job_plan job))
          in
          match Dae_analysis.Sizing.analyze ~cfg:Dae_sim.Config.default p with
          | Error _ ->
            Fmt.pr "%-6s %-5s (segment budget exceeded, skipped)@."
              k.Kernels.name mname
          | Ok sz ->
            let fold f init =
              List.fold_left f init sz.Dae_analysis.Sizing.channels
            in
            let min_max =
              fold (fun a s -> max a s.Dae_analysis.Sizing.sz_min) 1
            in
            let matched_max =
              fold (fun a s -> max a s.Dae_analysis.Sizing.sz_matched) 1
            in
            let v =
              Dae_dse.Sweep.validate_sizing job ~cfg:Dae_sim.Config.default
                ~path_limit:Dae_core.Poison.default_path_limit sz
            in
            let cycles, bound =
              match v.Dae_dse.Sweep.sv_min with
              | Ok cb -> cb
              | Error e ->
                Fmt.failwith "%s (%s): run at the analyzer's minimum depths \
                              failed: %s" k.Kernels.name mname e
            in
            if cycles > bound then
              Fmt.failwith
                "%s (%s): %d cycles at the analyzer's minimum depths exceed \
                 the predicted bound %d"
                k.Kernels.name mname cycles bound;
            let critical, probe =
              match v.Dae_dse.Sweep.sv_probe with
              | None -> ("-", "no critical channel")
              | Some (kind, outcome) -> (
                let cname = Dae_analysis.Channel.name kind in
                match outcome with
                | Ok (Dae_dse.Sweep.Probe_cycles c) ->
                  ( cname,
                    Printf.sprintf "%d cycles (%+.1f%% vs min)" c
                      (100. *. (float_of_int c /. float_of_int cycles -. 1.))
                  )
                | Ok (Dae_dse.Sweep.Probe_deadlock _) ->
                  (cname, "dynamic deadlock (as predicted)")
                | Ok (Dae_dse.Sweep.Probe_rejected _) ->
                  (cname, "rejected by Config.validate")
                | Error e ->
                  Fmt.failwith "%s (%s): %s min-1 probe failed: %s"
                    k.Kernels.name mname cname e)
            in
            Fmt.pr "%-6s %-5s %4d %8d %-14s %10d %12d  %s@." k.Kernels.name
              mname min_max matched_max critical cycles bound probe)
        sizing_modes)
    (bench_suite ());
  Fmt.pr
    "(analyzer minimums keep every kernel deadlock-free; one step below \
     the critical channel's minimum is the deadlock boundary)@."

(* --- leak: static speculative-leakage census over the suite ------------------ *)

(* Kept for the JSON emitter: (kernel, mode, taint verdict) rows. *)
let leak_rows : (string * string * Dae_analysis.Taint.t) list ref = ref []

(* Pure static analysis — no simulation jobs to declare; the dynamic
   witness confirmation lives in `daec leak --witness` and the @ci
   leak-quick golden, where its budget is controlled. *)
let leak_print () =
  Fmt.pr "@.== Speculative leakage: taint verdicts (daec leak) ==@.";
  Fmt.pr "%-6s %-5s %8s %6s %6s %6s %6s  %s@." "kernel" "mode" "sources"
    "sites" "ld-a" "st-a" "ctrl" "verdict";
  let rows = ref [] in
  List.iter
    (fun (k : Kernels.t) ->
      List.iter
        (fun (mode, mname) ->
          match Dae_core.Pipeline.compile ~mode (k.Kernels.build ()) with
          | exception Dae_core.Pipeline.Compile_error e ->
            Fmt.pr "%-6s %-5s compile error: %s@." k.Kernels.name mname e
          | p ->
            let t = Dae_analysis.Taint.analyze p in
            let count kind =
              List.length
                (List.filter
                   (fun (s : Dae_analysis.Taint.site) ->
                     s.Dae_analysis.Taint.s_kind = kind)
                   t.Dae_analysis.Taint.sites)
            in
            Fmt.pr "%-6s %-5s %8d %6d %6d %6d %6d  %s@." k.Kernels.name mname
              (List.length t.Dae_analysis.Taint.sources)
              (List.length t.Dae_analysis.Taint.sites)
              (count Dae_analysis.Taint.Load_addr)
              (count Dae_analysis.Taint.Store_addr)
              (count Dae_analysis.Taint.Control)
              (if Dae_analysis.Taint.clean t then "clean" else "LEAKY");
            rows := (k.Kernels.name, mname, t) :: !rows)
        [ (Dae_core.Pipeline.Dae, "dae"); (Dae_core.Pipeline.Spec, "spec") ])
    (bench_suite ());
  Fmt.pr
    "(sources = values loaded by hoisted pre-guard requests; a kernel is \
     clean when no tainted address, branch or produced value exists)@.";
  leak_rows := List.rev !rows

(* --- sweep: the trace-driven re-timing DSE engine, cold and warm ------------- *)

(* Parsed before the sections run; the sweep section reuses the pool
   bound. *)
let pool_jobs = ref (Dae_sim.Runner.default_domains ())

(* Kept for the JSON emitter: (label, summary) for the cold and warm
   passes. *)
let sweep_summaries : (string * Dae_dse.Sweep.summary) list ref = ref []

(* Quick-suite kernels × {DAE, SPEC, ORACLE} × the default capacity grid
   (648 configurations each): one functional execution per kernel and
   architecture, everything else is timing replay. Run twice over a fresh
   cache directory — the cold pass measures the re-timing engine, the
   warm pass measures the memoization (it must execute nothing and hit on
   every point). STA is excluded: its cycles do not depend on the swept
   capacities, so every axis collapses to one point. *)
let sweep_print () =
  Fmt.pr "@.== Design-space sweep: re-timed, memoized (daec sweep) ==@.";
  let dir = Filename.concat "_daec_cache" "bench" in
  let cache () = Dae_sim.Cache.create ~dir () in
  ignore (Dae_sim.Cache.clear (cache ()));
  let workloads =
    List.map
      (Dae_dse.Sweep.workload_of_kernel ~suite:"quick")
      (Kernels.test_suite ())
  in
  let sweep () =
    Dae_dse.Sweep.run ~domains:!pool_jobs ~cache:(cache ())
      ~axes:Dae_dse.Sweep.default_axes
      ~archs:
        [ Dae_sim.Machine.Dae; Dae_sim.Machine.Spec; Dae_sim.Machine.Oracle ]
      workloads
  in
  let cold = sweep () in
  let warm = sweep () in
  Fmt.pr "-- cold --@.%a@." Dae_dse.Sweep.pp_summary cold.Dae_dse.Sweep.summary;
  Fmt.pr "-- warm --@.%a@." Dae_dse.Sweep.pp_summary warm.Dae_dse.Sweep.summary;
  let cs = cold.Dae_dse.Sweep.summary and ws = warm.Dae_dse.Sweep.summary in
  Fmt.pr
    "warm re-sweep: %.1fx faster, %.1f%% hit rate, %d functional \
     executions@."
    (cs.Dae_dse.Sweep.sm_wall_s /. ws.Dae_dse.Sweep.sm_wall_s)
    (100. *. ws.Dae_dse.Sweep.sm_hit_rate)
    ws.Dae_dse.Sweep.sm_prepares;
  if cs.Dae_dse.Sweep.sm_check_failures <> []
     || ws.Dae_dse.Sweep.sm_check_failures <> []
  then
    Fmt.failwith "sweep cross-checks failed: %s"
      (String.concat "; "
         (cs.Dae_dse.Sweep.sm_check_failures
         @ ws.Dae_dse.Sweep.sm_check_failures));
  if cs.Dae_dse.Sweep.sm_sizing_violations <> [] then
    Fmt.failwith "sweep sizing violations: %s"
      (String.concat "; " cs.Dae_dse.Sweep.sm_sizing_violations);
  (* the hierarchy-axis grid, cold and warm: same memoization story over
     the memory-system dimensions (banks × ways × MSHRs × DRAM). The warm
     pass is this PR's acceptance anchor — at least 95% of its points
     must come from the cache. *)
  let hier_sweep () =
    Dae_dse.Sweep.run ~domains:!pool_jobs ~cache:(cache ())
      ~axes:Dae_dse.Sweep.hierarchy_axes
      ~archs:
        [ Dae_sim.Machine.Dae; Dae_sim.Machine.Spec; Dae_sim.Machine.Oracle ]
      workloads
  in
  let hcold = hier_sweep () in
  let hwarm = hier_sweep () in
  let hcs = hcold.Dae_dse.Sweep.summary
  and hws = hwarm.Dae_dse.Sweep.summary in
  Fmt.pr "-- hierarchy cold --@.%a@." Dae_dse.Sweep.pp_summary hcs;
  Fmt.pr "-- hierarchy warm --@.%a@." Dae_dse.Sweep.pp_summary hws;
  Fmt.pr
    "hierarchy warm re-sweep: %.1fx faster, %.1f%% hit rate, %d functional \
     executions@."
    (hcs.Dae_dse.Sweep.sm_wall_s /. hws.Dae_dse.Sweep.sm_wall_s)
    (100. *. hws.Dae_dse.Sweep.sm_hit_rate)
    hws.Dae_dse.Sweep.sm_prepares;
  if hcs.Dae_dse.Sweep.sm_check_failures <> []
     || hws.Dae_dse.Sweep.sm_check_failures <> []
  then
    Fmt.failwith "hierarchy sweep cross-checks failed: %s"
      (String.concat "; "
         (hcs.Dae_dse.Sweep.sm_check_failures
         @ hws.Dae_dse.Sweep.sm_check_failures));
  if hws.Dae_dse.Sweep.sm_hit_rate < 0.95 then
    Fmt.failwith
      "hierarchy warm re-sweep hit rate %.1f%% below the required 95%%"
      (100. *. hws.Dae_dse.Sweep.sm_hit_rate);
  sweep_summaries :=
    [ ("cold", cs); ("warm", ws); ("hier_cold", hcs); ("hier_warm", hws) ]

(* --- mem: fig6/table1 re-run under the banked-cache + DRAM hierarchy --------- *)

(* Two hierarchy points: the CLI's --mem cache baseline and a deliberately
   starved one (direct-mapped single bank, 2 MSHRs, slow narrow DRAM) that
   pushes the Mshr_full/Dram_bank partitions into the attribution. STA is
   left out of the hierarchy tables — its analytic in-order model prices
   loads at the scratchpad latency, so normalizing against it under a
   cache would be meaningless; the fig6 half instead normalizes SPEC and
   ORACLE to DAE (the latency-tolerance claim), and each point also
   reports SPEC's slowdown against its own scratchpad run. *)
let mem_points =
  [
    ("cache-base", Dae_sim.Config.default_geom);
    ( "cache-small",
      {
        Dae_sim.Config.banks = 1;
        sets = 8;
        ways = 1;
        line_words = 4;
        hit_latency = 2;
        mshrs = 2;
        dram =
          {
            Dae_sim.Config.dram_banks = 2;
            row_words = 128;
            t_row_hit = 30;
            t_row_miss = 80;
            t_bus = 8;
          };
      } );
  ]

let mem_archs =
  [ Dae_sim.Machine.Dae; Dae_sim.Machine.Spec; Dae_sim.Machine.Oracle ]

let mem_cfg geom =
  {
    Dae_sim.Config.default with
    Dae_sim.Config.hierarchy = Dae_sim.Config.Hierarchy geom;
  }

let mem_req geom = suite_req ~cfg:(mem_cfg geom)

let mem_reqs () =
  List.concat_map
    (fun (k : Kernels.t) ->
      (* the scratchpad SPEC point anchors the slowdown column; dedup by
         key merges it with fig6/table1's identical job *)
      suite_req k.Kernels.name Dae_sim.Machine.Spec
      :: List.concat_map
           (fun (_, geom) ->
             List.map (mem_req geom k.Kernels.name) mem_archs)
           mem_points)
    (bench_suite ())

let mem_print () =
  List.iter
    (fun (pname, geom) ->
      Fmt.pr "@.== Memory hierarchy %s: %a ==@." pname
        Dae_sim.Config.pp_hierarchy
        (Dae_sim.Config.Hierarchy geom);
      Fmt.pr "%-6s %10s %10s %10s %9s %9s %11s@." "kernel" "DAE" "SPEC"
        "ORACLE" "SPEC/DAE" "ORA/DAE" "vs-scratch";
      let spec_norms = ref [] and slowdowns = ref [] in
      List.iter
        (fun (k : Kernels.t) ->
          let cycles arch =
            float_of_int (get (mem_req geom k.Kernels.name arch)).o_cycles
          in
          let dae = cycles Dae_sim.Machine.Dae in
          let spec = cycles Dae_sim.Machine.Spec in
          let oracle = cycles Dae_sim.Machine.Oracle in
          let scratch_spec =
            float_of_int
              (get (suite_req k.Kernels.name Dae_sim.Machine.Spec)).o_cycles
          in
          spec_norms := (dae /. spec) :: !spec_norms;
          slowdowns := (spec /. scratch_spec) :: !slowdowns;
          Fmt.pr "%-6s %10.0f %10.0f %10.0f %8.2fx %8.2fx %10.2fx@."
            k.Kernels.name dae spec oracle (dae /. spec) (dae /. oracle)
            (spec /. scratch_spec))
        (bench_suite ());
      Fmt.pr
        "SPEC harmonic-mean speedup over DAE: %.2fx; harmonic-mean SPEC \
         slowdown vs scratchpad: %.2fx@."
        (harmonic_mean !spec_norms)
        (harmonic_mean !slowdowns))
    mem_points

(* --- mlp: N-way access-unit scaling on the graph/irregular kernels --------- *)

(* The static partitioner's case for more than one access unit: under the
   cache hierarchy (cache-base geometry), re-run DAE with the address
   streams split across 1 (classic AGU), 2, and the inferred natural N
   access units. Independent streams in their own units issue their
   misses concurrently instead of serializing behind one AGU's blocked
   loads, so the MLP — and with it the cycle count — should improve on
   the kernels whose partition DAG is wider than the classic split. The
   1-unit point is partition-free and dedups with the mem section's
   cache-base DAE job. *)
let mlp_kernels = [ "bfs"; "bc"; "sssp"; "mm"; "spmv" ]

let mlp_units name =
  match Kernels.by_name (bench_suite ()) name with
  | None -> []
  | Some k ->
    let natural =
      Dae_analysis.Partition.analyze (k.Kernels.build ())
    in
    let n = natural.Dae_analysis.Partition.assignment.Dae_core.Decouple.n_access in
    List.sort_uniq compare [ 1; min 2 n; n ]

let mlp_req name units =
  let mk = suite_kernel name in
  let partition =
    if units <= 1 then None
    else
      let k = mk () in
      Some
        (Dae_analysis.Partition.analyze ~max_units:units (k.Kernels.build ()))
          .Dae_analysis.Partition.assignment
  in
  req
    ~cfg:(mem_cfg Dae_sim.Config.default_geom)
    ?partition ~kernel:name ~arch:Dae_sim.Machine.Dae mk

let mlp_reqs () =
  List.concat_map
    (fun name -> List.map (mlp_req name) (mlp_units name))
    mlp_kernels

let mlp_print () =
  Fmt.pr
    "@.== MLP scaling: DAE cycles vs access-unit count (cache-base) ==@.";
  Fmt.pr "%-6s %6s %10s %10s %10s %9s %9s@." "kernel" "units" "1-unit"
    "2-unit" "N-unit" "2u/1u" "Nu/2u";
  List.iter
    (fun name ->
      match mlp_units name with
      | [] -> ()
      | units ->
        let cycles u = float_of_int (get (mlp_req name u)).o_cycles in
        let n = List.fold_left max 1 units in
        let c1 = cycles 1 in
        let c2 = if List.mem 2 units then cycles 2 else c1 in
        let cn = cycles n in
        Fmt.pr "%-6s %6d %10.0f %10.0f %10.0f %8.2fx %8.2fx@." name n c1 c2
          cn (c1 /. c2) (c2 /. cn))
    mlp_kernels

(* --- smoke: tiny sweep exercising the pool and the JSON emitter ------------- *)

let smoke_reqs () =
  List.map
    (fun arch -> req ~kernel:"hist~n128" ~arch (fun () -> Kernels.hist ~n:128 ()))
    archs
  @ [
      req ~kernel:"nest2~n32" ~arch:Dae_sim.Machine.Spec (fun () ->
          Synthetic.workload ~n:32 ~depth:2 ());
    ]

let smoke_print () =
  Fmt.pr "@.== Smoke: tiny kernels through the job pool ==@.";
  List.iter
    (fun r ->
      let o = get r in
      Fmt.pr "%-12s %-7s %8d cycles  misspec %5.1f%%  area %6d@." o.o_kernel
        o.o_arch o.o_cycles (100. *. o.o_misspec) o.o_area_total)
    (smoke_reqs ())

(* --- Bechamel micro-benchmarks of the compiler passes --------------------------- *)

let micro () =
  Fmt.pr "@.== Compiler pass micro-benchmarks (Bechamel) ==@.";
  let open Bechamel in
  let open Toolkit in
  let fig6_kernel () = (Kernels.hist ()).Kernels.build () in
  let fig4 () =
    (* the running example used throughout: parse cost included once *)
    (Synthetic.workload ~n:10 ~depth:4 ()).Kernels.build ()
  in
  let tests =
    [
      (* one Test.make per experiment id: the compile work behind each *)
      Test.make ~name:"fig6-spec-compile"
        (Staged.stage (fun () ->
             ignore
               (Dae_core.Pipeline.compile ~mode:Dae_core.Pipeline.Spec
                  (fig6_kernel ()))));
      Test.make ~name:"table1-lod-analysis"
        (Staged.stage (fun () -> ignore (Dae_core.Lod.analyze (fig6_kernel ()))));
      Test.make ~name:"table2-dae-compile"
        (Staged.stage (fun () ->
             ignore
               (Dae_core.Pipeline.compile ~mode:Dae_core.Pipeline.Dae
                  (fig6_kernel ()))));
      Test.make ~name:"fig7-nested-spec-compile"
        (Staged.stage (fun () ->
             ignore
               (Dae_core.Pipeline.compile ~mode:Dae_core.Pipeline.Spec
                  (fig4 ()))));
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances test in
    Analyze.all ols Instance.monotonic_clock raw
  in
  let results = benchmark (Test.make_grouped ~name:"passes" ~fmt:"%s %s" tests) in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Fmt.pr "%-32s %12.1f ns/run@." name est
      | _ -> Fmt.pr "%-32s (no estimate)@." name)
    results

(* --- JSON emitter ------------------------------------------------------------ *)

(* Perf-trajectory denominators, all measured on this host at --jobs 1:
   the seed cycle-polling engine (PR 1), the BENCH_4 event-driven engine
   with the tree-walking co-simulator, and the BENCH_5 lowered micro-op
   engine immediately before this PR's trace-driven re-timing — whose 93
   fused jobs in 45.455 s are the sweep section's points-per-second
   baseline. *)
let seed_fig6_table1_wall_s = 142.5
let bench4_fig6_table1_wall_s = 26.626
let bench4_suite_wall_s = 87.390
let bench5_suite_wall_s = 45.455
let bench5_suite_jobs = 93

module Json = Dae_sim.Json

let pool_json (s : Dae_sim.Runner.pool_stats) =
  Printf.sprintf
    "{ \"domains\": %d, \"wall_s\": %.3f, \"utilization\": %.4f, \
     \"steals\": %d, \"workers\": [%s] }"
    s.Dae_sim.Runner.p_domains s.Dae_sim.Runner.p_wall_s
    (Dae_sim.Runner.utilization s)
    (Dae_sim.Runner.total_steals s)
    (String.concat ", "
       (Array.to_list
          (Array.map
             (fun (w : Dae_sim.Runner.worker_stats) ->
               Printf.sprintf
                 "{ \"jobs\": %d, \"steals\": %d, \"busy_s\": %.3f }"
                 w.Dae_sim.Runner.w_jobs w.Dae_sim.Runner.w_steals
                 w.Dae_sim.Runner.w_busy_s)
             s.Dae_sim.Runner.p_workers)))

let sweep_json (label, (s : Dae_dse.Sweep.summary)) =
  Printf.sprintf
    "\"%s\": { \"points\": %d, \"deadlocked\": %d, \"wall_s\": %.3f, \
     \"points_per_s\": %.0f, \"functional_executions\": %d, \"cache\": { \
     \"hits\": %d, \"misses\": %d, \"stores\": %d, \"corrupt\": %d, \
     \"hit_rate\": %.4f }, \"cross_checks\": %d, \"cross_check_failures\": \
     %d, \"sizing_jobs_validated\": %d, \"sizing_violations\": %d, \
     \"pool\": %s }"
    label s.Dae_dse.Sweep.sm_points s.Dae_dse.Sweep.sm_deadlocked
    s.Dae_dse.Sweep.sm_wall_s
    (if s.Dae_dse.Sweep.sm_wall_s > 0. then
       float_of_int s.Dae_dse.Sweep.sm_points /. s.Dae_dse.Sweep.sm_wall_s
     else 0.)
    s.Dae_dse.Sweep.sm_prepares s.Dae_dse.Sweep.sm_cache.Dae_sim.Cache.hits
    s.Dae_dse.Sweep.sm_cache.Dae_sim.Cache.misses
    s.Dae_dse.Sweep.sm_cache.Dae_sim.Cache.stores
    s.Dae_dse.Sweep.sm_cache.Dae_sim.Cache.corrupt
    s.Dae_dse.Sweep.sm_hit_rate s.Dae_dse.Sweep.sm_checks
    (List.length s.Dae_dse.Sweep.sm_check_failures)
    s.Dae_dse.Sweep.sm_sizing_checked
    (List.length s.Dae_dse.Sweep.sm_sizing_violations)
    (pool_json s.Dae_dse.Sweep.sm_pool)

let write_json ~path ~sections ~domains ~wall_s ~pool ~section_stats
    (outs : (string * sim_out) list) =
  let oc =
    try open_out path
    with Sys_error msg ->
      Fmt.epr "cannot write %s: %s@." path msg;
      exit 1
  in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"dae-bench/1\",\n";
  p "  \"sections\": [%s],\n"
    (String.concat ", "
       (List.map (fun s -> Printf.sprintf "\"%s\"" (Json.escape s)) sections));
  p "  \"domains\": %d,\n" domains;
  p "  \"jobs\": %d,\n" (List.length outs);
  p "  \"wall_s\": %.3f,\n" wall_s;
  p "  \"pool\": %s,\n" (pool_json pool);
  (* per-section accounting: distinct simulation jobs, the sum of their
     per-job walls, and the render's own wall — the perf trajectory of
     each table/figure is machine-readable, not just the whole run's *)
  p "  \"section_stats\": [%s],\n"
    (String.concat ", "
       (List.map
          (fun (name, jobs, sim_s, print_s) ->
            Printf.sprintf
              "{ \"section\": \"%s\", \"jobs\": %d, \"sim_wall_s\": %.3f, \
               \"print_wall_s\": %.3f }"
              (Json.escape name) jobs sim_s print_s)
          section_stats));
  (match !sweep_summaries with
  | [] -> ()
  | summaries ->
    p
      "  \"sweep\": { \"grid\": \"default+hierarchy\", \"suite\": \
       \"quick\", %s },\n"
      (String.concat ", " (List.map sweep_json summaries)));
  (match !leak_rows with
  | [] -> ()
  | rows ->
    p "  \"leak\": [%s],\n"
      (String.concat ", "
         (List.map
            (fun (kernel, mode, (t : Dae_analysis.Taint.t)) ->
              Printf.sprintf
                "{ \"kernel\": \"%s\", \"mode\": \"%s\", \"sources\": %d, \
                 \"sites\": %d, \"speculative_sites\": %d, \"clean\": %b }"
                (Json.escape kernel) (Json.escape mode)
                (List.length t.Dae_analysis.Taint.sources)
                (List.length t.Dae_analysis.Taint.sites)
                (List.length
                   (List.filter
                      (fun (s : Dae_analysis.Taint.site) ->
                        s.Dae_analysis.Taint.s_speculative)
                      t.Dae_analysis.Taint.sites))
                (Dae_analysis.Taint.clean t))
            rows)));
  p
    "  \"baseline\": { \"bench\": \"BENCH_5.json\", \"engine\": \
     \"lowered micro-op co-sim, fused exec+timing per point\", \
     \"suite_wall_s\": %.3f, \"suite_jobs\": %d, \
     \"fig6_table1_wall_s_bench4\": %.3f, \"suite_wall_s_bench4\": %.3f, \
     \"seed_fig6_table1_wall_s\": %.1f },\n"
    bench5_suite_wall_s bench5_suite_jobs bench4_fig6_table1_wall_s
    bench4_suite_wall_s seed_fig6_table1_wall_s;
  let stats_json stats =
    (* nonzero causes only: the full partition is mostly zeros *)
    String.concat ", "
      (List.map
         (fun (unit, causes) ->
           Printf.sprintf "\"%s\": { %s }" (Json.escape unit)
             (String.concat ", "
                (List.filter_map
                   (fun (cause, n) ->
                     if n = 0 then None
                     else Some (Printf.sprintf "\"%s\": %d" cause n))
                   causes)))
         stats)
  in
  p "  \"results\": [\n";
  List.iteri
    (fun i (key, o) ->
      p
        "    { \"key\": \"%s\", \"kernel\": \"%s\", \"arch\": \"%s\", \
         \"cfg\": \"%s\", \"cycles\": %d, \"misspec_rate\": %.6f, \
         \"area\": %d, \"area_cu\": %d, \"area_agu\": %d, \"pblk\": %d, \
         \"pcall\": %d, \"killed_stores\": %d, \"committed_stores\": %d, \
         \"check_errors\": %d, \"check_warnings\": %d, \
         \"sizing_verdict\": \"%s\", \"min_depths\": { %s }, \
         \"stats\": { %s }, \"gc\": { \"minor_words\": %.0f, \
         \"major_words\": %.0f, \"minor_collections\": %d, \
         \"major_collections\": %d }, \"wall_s\": %.6f }%s\n"
        (Json.escape key) (Json.escape o.o_kernel) (Json.escape o.o_arch)
        (Json.escape o.o_cfg) o.o_cycles o.o_misspec o.o_area_total
        o.o_area_cu o.o_area_agu o.o_pblk o.o_pcall o.o_killed o.o_committed
        o.o_check_errors o.o_check_warnings
        (Json.escape o.o_sizing_verdict)
        (String.concat ", "
           (List.map
              (fun (n, d) -> Printf.sprintf "\"%s\": %d" (Json.escape n) d)
              o.o_min_depths))
        (stats_json o.o_stats) o.o_gc_minor_words o.o_gc_major_words
        o.o_gc_minor_collections o.o_gc_major_collections o.o_wall_s
        (if i = List.length outs - 1 then "" else ","))
    outs;
  p "  ]\n}\n";
  close_out oc

(* --- driver ------------------------------------------------------------------ *)

type section = {
  s_name : string;
  s_reqs : unit -> sim_req list;
  s_print : unit -> unit;
}

let sections_all =
  [
    { s_name = "fig6"; s_reqs = suite_reqs; s_print = fig6_print };
    { s_name = "table1"; s_reqs = suite_reqs; s_print = table1_print };
    { s_name = "table2"; s_reqs = table2_reqs; s_print = table2_print };
    { s_name = "fig7"; s_reqs = fig7_reqs; s_print = fig7_print };
    { s_name = "ablation"; s_reqs = ablation_reqs; s_print = ablation_print };
    { s_name = "sizing"; s_reqs = sizing_reqs; s_print = sizing_print };
    { s_name = "leak"; s_reqs = (fun () -> []); s_print = leak_print };
    { s_name = "sweep"; s_reqs = (fun () -> []); s_print = sweep_print };
    { s_name = "mem"; s_reqs = mem_reqs; s_print = mem_print };
    { s_name = "mlp"; s_reqs = mlp_reqs; s_print = mlp_print };
    { s_name = "micro"; s_reqs = (fun () -> []); s_print = micro };
    { s_name = "smoke"; s_reqs = smoke_reqs; s_print = smoke_print };
  ]

let default_section_names =
  [ "fig6"; "table1"; "table2"; "fig7"; "ablation"; "sizing"; "leak";
    "sweep"; "mem"; "mlp"; "micro" ]

let () =
  let jobs = pool_jobs in
  let json_path = ref "BENCH_10.json" in
  let expect_path = ref None in
  let no_cache = ref false in
  let cache_dir = ref Dae_sim.Cache.default_dir in
  let names = ref [] in
  let add_section s =
    if List.exists (fun sec -> sec.s_name = s) sections_all then
      names := s :: !names
    else begin
      Fmt.epr "unknown section %s (sections: %s)@." s
        (String.concat " " (List.map (fun sec -> sec.s_name) sections_all));
      exit 2
    end
  in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> jobs := n
      | _ ->
        Fmt.epr "--jobs expects a positive integer, got %s@." n;
        exit 2);
      parse rest
    | "--json" :: p :: rest ->
      json_path := p;
      parse rest
    | "--section" :: s :: rest ->
      add_section s;
      parse rest
    | "--expect" :: p :: rest ->
      expect_path := Some p;
      parse rest
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--no-cache" :: rest ->
      no_cache := true;
      parse rest
    | "--cache-dir" :: p :: rest ->
      cache_dir := p;
      parse rest
    | ("--jobs" | "--json" | "--section" | "--expect" | "--cache-dir") :: []
      ->
      Fmt.epr "missing argument@.";
      exit 2
    | s :: rest ->
      add_section s;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* every job's result cache; --no-cache re-times every point (cold
     timings), --cache-dir isolates runs (the CI retime-quick rule does
     both passes against a sandbox-local directory) *)
  bench_cache :=
    (if !no_cache then Dae_sim.Cache.disabled ()
     else Dae_sim.Cache.create ~dir:!cache_dir ());
  let names =
    if !names <> [] then List.rev !names
    else if !quick then [ "fig6" ]
    else default_section_names
  in
  let selected =
    List.filter_map
      (fun n -> List.find_opt (fun s -> s.s_name = n) sections_all)
      names
  in
  let t0 = Unix.gettimeofday () in
  (* gather every section's jobs, dedup by key, fan out over the pool *)
  let reqs = List.concat_map (fun s -> s.s_reqs ()) selected in
  let by_key : (string, sim_req) Hashtbl.t = Hashtbl.create 128 in
  List.iter
    (fun r -> if not (Hashtbl.mem by_key r.r_key) then Hashtbl.add by_key r.r_key r)
    reqs;
  (* register one representative request per (kernel, arch, partition)
     before the fan-out: job_reqs is read-only once workers start *)
  Hashtbl.iter
    (fun _ r ->
      if not (Hashtbl.mem job_reqs (job_key r)) then
        Hashtbl.add job_reqs (job_key r) r)
    by_key;
  let compute =
    Dae_sim.Runner.memoize (fun key -> run_req (Hashtbl.find by_key key))
  in
  let results, pool =
    Dae_sim.Runner.map_keyed_stats ~domains:!jobs
      ~key:(fun r -> r.r_key)
      ~f:(fun r -> compute r.r_key)
      reqs
  in
  List.iter (fun (key, o) -> Hashtbl.replace table key o) results;
  (* render each section, accounting its distinct jobs, their summed
     per-job simulation walls and the render's own wall *)
  let section_stats =
    List.map
      (fun s ->
        let keys =
          List.sort_uniq String.compare
            (List.map (fun r -> r.r_key) (s.s_reqs ()))
        in
        let sim_s =
          List.fold_left
            (fun acc k -> acc +. (Hashtbl.find table k).o_wall_s)
            0. keys
        in
        let p0 = Unix.gettimeofday () in
        s.s_print ();
        (s.s_name, List.length keys, sim_s, Unix.gettimeofday () -. p0))
      selected
  in
  let wall = Unix.gettimeofday () -. t0 in
  write_json ~path:!json_path ~sections:names ~domains:!jobs ~wall_s:wall
    ~pool ~section_stats results;
  (* --expect: a timing-free "key cycles" table, sorted by key — the
     deterministic artifact the @ci bench-quick rule diffs against its
     committed expectation *)
  (match !expect_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    List.iter
      (fun (key, o) -> Printf.fprintf oc "%s %d\n" key o.o_cycles)
      (List.sort (fun (a, _) (b, _) -> String.compare a b) results);
    close_out oc);
  Fmt.pr
    "@.[bench] %d jobs on %d domain(s) in %.1fs (%.0f%% utilization, %d \
     steals) -> %s@."
    (List.length results) !jobs wall
    (100. *. Dae_sim.Runner.utilization pool)
    (Dae_sim.Runner.total_steals pool)
    !json_path
