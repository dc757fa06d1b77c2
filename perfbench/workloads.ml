(* The four workloads. Each [setup] builds its seeded inputs and returns
   the pass: one timed sweep over the workload's points that records a
   verdict for every point in the gate and wraps every public-layer call
   in a span (a no-op unless tracing is on). *)

open Dae_workloads
module Machine = Dae_sim.Machine
module Config = Dae_sim.Config
module Retime = Dae_sim.Retime
module Cache = Dae_sim.Cache
module Runner = Dae_sim.Runner
module Timing = Dae_sim.Timing
module Sweep = Dae_dse.Sweep
module Pipeline = Dae_core.Pipeline
module Span = Perfbench_lib.Span
module Arith = Perfbench_lib.Arith

(* Per-pass figures a workload measures beyond points and wall time,
   reported under these names in the traced run. *)
let extra : (string, float) Hashtbl.t = Hashtbl.create 16
let set_extra k v = Hashtbl.replace extra k v

type pass = traced:bool -> Gate.t -> float option
(** Runs every point once. [Some w] is the wall time of the pass's timed
    phase when that is not the whole pass (dse-sweep's cold sweep). *)

type t = {
  name : string;
  domains : int;
  setup : seed:int -> pass;
}

let arch_name = Machine.arch_name

(* --- shared point steps -------------------------------------------------------- *)

(* plan → prepare → reference check. [None] once the point has failed. *)
let prepare g ~name ?partition arch (b : Inputs.built) =
  Option.join
    (Gate.guard g name (fun () ->
         let plan =
           Span.span ~point:name "plan" (fun () -> Retime.plan ?partition arch b.func)
         in
         let prepared =
           Span.span ~point:name "prepare" (fun () ->
               Retime.prepare plan ~invocations:b.invocations ~mem:b.mem)
         in
         match
           Span.span ~point:name "check" (fun () ->
               b.kernel.Kernels.check (Retime.final_memory prepared))
         with
         | Ok () -> Some prepared
         | Error m ->
           Gate.fail g name ("reference check failed: " ^ m);
           None))

let timing_layer (cfg : Config.t) =
  match cfg.Config.hierarchy with
  | Config.Scratchpad -> "timing.scratchpad"
  | Config.Hierarchy _ -> "timing.hierarchy"

(* Re-time at a validated configuration: a deadlock here is a failure. *)
let simulate g ~name ~cfg prepared =
  match
    Span.span ~point:name ~on_exn:"timing.deadlock"
      ~cycles:(fun r -> r.Machine.cycles)
      (timing_layer cfg)
      (fun () -> Retime.simulate ~cfg prepared)
  with
  | r ->
    Gate.sim g name ~cycles:r.Machine.cycles ~killed:r.Machine.killed_stores
      ~committed:r.Machine.committed_stores ~stats:(Gate.export r.Machine.stats)
  | exception Timing.Deadlock m -> Gate.fail g name ("deadlock at a validated configuration: " ^ m)
  | exception e -> Gate.fail g name ("raised " ^ Printexc.to_string e)

(* --- paper-scratchpad ------------------------------------------------------------ *)

let all_archs = Machine.[ Sta; Dae; Spec; Oracle ]

let paper_scratchpad =
  {
    name = "paper-scratchpad";
    domains = 1;
    setup =
      (fun ~seed ->
        let suite = List.map Inputs.build (Inputs.paper_suite ~seed) in
        fun ~traced:_ g ->
          List.iter
            (fun (b : Inputs.built) ->
              List.iter
                (fun arch ->
                  let name = b.kernel.Kernels.name ^ "/" ^ arch_name arch in
                  match prepare g ~name arch b with
                  | Some p -> simulate g ~name ~cfg:Config.default p
                  | None -> ())
                all_archs)
            suite;
          None);
  }

(* --- hier-graph ------------------------------------------------------------------ *)

(* The bench harness's two hierarchy points plus two corners of
   [Sweep.hierarchy_axes]: its first cache point (1 bank, direct-mapped,
   2 MSHRs, default DRAM) and its last (2 banks, 2 ways, 8 MSHRs, starved
   DRAM). *)
let hier_points =
  let cache_small =
    {
      Config.banks = 1;
      sets = 8;
      ways = 1;
      line_words = 4;
      hit_latency = 2;
      mshrs = 2;
      dram =
        { Config.dram_banks = 2; row_words = 128; t_row_hit = 30; t_row_miss = 80; t_bus = 8 };
    }
  in
  let sweep_geoms =
    List.filter_map
      (function Config.Hierarchy g -> Some g | Config.Scratchpad -> None)
      Sweep.hierarchy_axes.Sweep.hier
  in
  let first = List.hd sweep_geoms and last = List.nth sweep_geoms (List.length sweep_geoms - 1) in
  List.map
    (fun (n, geom) -> (n, { Config.default with Config.hierarchy = Config.Hierarchy geom }))
    [ ("cache-base", Config.default_geom); ("cache-small", cache_small); ("sweep-first", first);
      ("sweep-last", last) ]

(* A graph small enough that a pass re-times all 48 points in a few
   seconds, with the paper graph's edge density. *)
let hier_nodes = 120
let hier_edges = 1600

let hier_graph =
  {
    name = "hier-graph";
    domains = 1;
    setup =
      (fun ~seed ->
        let kernels =
          List.map Inputs.build (Inputs.hier_graph ~seed ~nodes:hier_nodes ~edges:hier_edges)
        in
        fun ~traced:_ g ->
          List.iter
            (fun (b : Inputs.built) ->
              let kname = b.kernel.Kernels.name in
              let natural =
                Span.span ~point:kname "partition" (fun () ->
                    (Dae_analysis.Partition.analyze b.func).Dae_analysis.Partition.assignment)
              in
              let variants =
                List.map (fun a -> (arch_name a, a, None)) Machine.[ Dae; Spec; Oracle ]
                @ [
                    ( Printf.sprintf "DAE@u%d" natural.Dae_core.Decouple.n_access,
                      Machine.Dae,
                      Some natural );
                  ]
              in
              List.iter
                (fun (vname, arch, partition) ->
                  let combo = kname ^ "/" ^ vname in
                  match prepare g ~name:combo ?partition arch b with
                  | None -> ()
                  | Some p ->
                    List.iter
                      (fun (hname, cfg) -> simulate g ~name:(combo ^ "@" ^ hname) ~cfg p)
                      hier_points)
                variants)
            kernels;
          None);
  }

(* --- dse-sweep ------------------------------------------------------------------- *)

let dse_archs = Machine.[ Dae; Spec; Oracle ]
(* One domain: on the 2-vCPU reference host, a 2-domain cold sweep swung
   between 13.7 and 32.7 s across runs (the hypervisor steals time when
   both vCPUs are busy), while a 1-domain sweep stays steady. Runner is
   still the path ([Runner.map_stats] at one domain). *)
let dse_domains = 1
(* Run outputs, inside the checkout: dse-sweep's result cache (removed
   when the run ends) and the traced run's span files. *)
let out_dir = ".perfbench"

let mkdir_out () =
  try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let cache_dir = Printf.sprintf "%s/cache-%d" out_dir (Unix.getpid ())

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let point_name (p : Sweep.point) =
  Printf.sprintf "%s/%s@%s" p.Sweep.pt_workload (arch_name p.Sweep.pt_arch) p.Sweep.pt_cfg

let status_line (p : Sweep.point) =
  match p.Sweep.pt_status with
  | Sweep.Deadlock -> "deadlock"
  | Sweep.Cycles c ->
    Printf.sprintf "%d/%d/%d/%s" c p.Sweep.pt_killed p.Sweep.pt_committed
      (Gate.stats_line p.Sweep.pt_stats)

(* The whole grid's verdicts. [violations] names the deadlocked points at
   capacities at or above the sizing minima; [check_failures] the sampled
   cross-checks that disagreed ("<point>: <reason>"). One expectation
   line per (workload, arch) job digests its points. *)
let record_sweep g ~violations ~check_failures (points : Sweep.point list) =
  List.iter
    (fun (p : Sweep.point) ->
      let name = point_name p in
      match p.Sweep.pt_status with
      | Sweep.Deadlock ->
        Gate.verdict g name (Arith.deadlock_verdict ~at_or_above_min:(List.mem name violations))
      | Sweep.Cycles cycles ->
        Gate.sim ~line:false g name ~cycles ~killed:p.Sweep.pt_killed
          ~committed:p.Sweep.pt_committed ~stats:p.Sweep.pt_stats)
    points;
  List.iter
    (fun f ->
      match String.index_opt f ':' with
      | Some i -> Gate.fail g (String.sub f 0 i) ("cross-check: " ^ f)
      | None -> Gate.fail g "dse-sweep" ("cross-check: " ^ f))
    check_failures;
  let jobs = Hashtbl.create 32 in
  List.iter
    (fun (p : Sweep.point) ->
      let k = p.Sweep.pt_workload ^ "/" ^ arch_name p.Sweep.pt_arch in
      let prev = Option.value ~default:[] (Hashtbl.find_opt jobs k) in
      Hashtbl.replace jobs k ((p.Sweep.pt_cfg ^ " " ^ status_line p) :: prev))
    points;
  Hashtbl.iter
    (fun k ls ->
      Gate.line g k
        (Printf.sprintf "points:%d digest:%s" (List.length ls)
           (Gate.digest (String.concat "\n" (List.rev ls)))))
    jobs

(* The warm pass must reproduce the cold one point for point, every
   point served from the cache. *)
let check_warm g ~(cold : Sweep.point list) ~(warm : Sweep.point list) =
  let strip (p : Sweep.point) = { p with Sweep.pt_cached = false } in
  if List.length cold <> List.length warm then
    Gate.fail g "dse-sweep/warm" "warm pass has a different point count"
  else
    List.iter2
      (fun c w ->
        if strip c <> strip w then Gate.fail g (point_name c) "warm result differs from cold"
        else if not w.Sweep.pt_cached then
          Gate.fail g (point_name c) "warm point was not served from the cache")
      cold warm

(* --- the traced replay of Sweep.run ---- *)

(* Identical keys and payload to [Sweep.run]'s own, so the replayed
   per-point results are comparable one for one. *)
type cached_point = {
  cp_status : Sweep.status;
  cp_killed : int;
  cp_committed : int;
  cp_stats : (string * (string * int) list) list;
}

let payload_tag = "sweep-point/1"

let cached_of_result (r : Machine.result) =
  {
    cp_status = Sweep.Cycles r.Machine.cycles;
    cp_killed = r.Machine.killed_stores;
    cp_committed = r.Machine.committed_stores;
    cp_stats = Gate.export r.Machine.stats;
  }

let deadlocked = { cp_status = Sweep.Deadlock; cp_killed = 0; cp_committed = 0; cp_stats = [] }

let capacities (c : Config.t) =
  Config.
    [
      c.request_fifo_capacity;
      c.value_fifo_capacity;
      c.store_value_fifo_capacity;
      c.load_queue_size;
      c.store_queue_size;
    ]

let covers ~(min : Config.t) c = List.for_all2 ( >= ) (capacities c) (capacities min)

(* One (workload, arch) job of the grid, as [Sweep.run] runs it: plan,
   lazy prepare on the first miss, find/re-time/store per configuration,
   one sampled fused cross-check, then the sizing boundary check. *)
let replay_job ~cache ~cfgs ((w : Sweep.workload), arch) =
  let job = w.Sweep.w_name ^ "/" ^ arch_name arch in
  Span.span ~point:job "sweep" (fun () ->
      let plan = Span.span ~point:job "plan" (fun () -> Retime.plan arch w.Sweep.w_func) in
      let prepared =
        lazy
          (Span.span ~point:job "prepare" (fun () ->
               Retime.prepare plan ~invocations:w.Sweep.w_invocations ~mem:w.Sweep.w_mem))
      in
      let points =
        List.map
          (fun cfg ->
            let cfg_key = Config.key cfg in
            let key =
              Cache.key
                [ Cache.version; payload_tag; Retime.plan_digest plan; w.Sweep.w_instance; cfg_key ]
            in
            let point cp cached =
              ( cfg,
                {
                  Sweep.pt_workload = w.Sweep.w_name;
                  pt_arch = arch;
                  pt_cfg = cfg_key;
                  pt_status = cp.cp_status;
                  pt_killed = cp.cp_killed;
                  pt_committed = cp.cp_committed;
                  pt_stats = cp.cp_stats;
                  pt_cached = cached;
                } )
            in
            match
              (Span.span ~point:job "cache.find" (fun () -> Cache.find cache key)
                : cached_point option)
            with
            | Some cp -> point cp true
            | None ->
              let cp =
                let p = Lazy.force prepared in
                match
                  Span.span ~point:job ~on_exn:"timing.deadlock"
                    ~cycles:(fun r -> r.Machine.cycles)
                    (timing_layer cfg)
                    (fun () -> Retime.simulate ~validate:false ~cfg p)
                with
                | r -> cached_of_result r
                | exception Timing.Deadlock _ -> deadlocked
              in
              Span.span ~point:job "cache.store" (fun () ->
                  Cache.store ~kind:"sweep-point" cache key cp);
              point cp false)
          cfgs
      in
      (* [Sweep.run]'s default [check] of 1: the first point *)
      let failures =
        match points with
        | [] -> []
        | (cfg, (pt : Sweep.point)) :: _ ->
          let full =
            Span.span ~point:job "sweep.crosscheck" (fun () ->
                match
                  Machine.simulate ~cfg ~validate:false arch w.Sweep.w_func
                    ~invocations:w.Sweep.w_invocations ~mem:w.Sweep.w_mem
                with
                | r -> cached_of_result r
                | exception Timing.Deadlock _ -> deadlocked)
          in
          let mine =
            { cp_status = pt.Sweep.pt_status; cp_killed = pt.Sweep.pt_killed;
              cp_committed = pt.Sweep.pt_committed; cp_stats = pt.Sweep.pt_stats }
          in
          let mine = if mine.cp_status = Sweep.Deadlock then deadlocked else mine in
          if mine = full then []
          else [ point_name pt ^ ": re-timed and fused results differ" ]
      in
      (* [None]: the sizing check did not run (budget exceeded) *)
      let violations =
        Option.bind (Retime.pipeline plan) (fun p ->
            match
              Span.span ~point:job "sizing" (fun () ->
                  Dae_analysis.Sizing.analyze ~cfg:Config.default p)
            with
            | Error _ -> None
            | Ok sz ->
              let min = sz.Dae_analysis.Sizing.min_cfg in
              Some
                (List.filter_map
                   (fun (cfg, (pt : Sweep.point)) ->
                     if pt.Sweep.pt_status = Sweep.Deadlock && covers ~min cfg then
                       Some (point_name pt)
                     else None)
                   points))
      in
      (List.map snd points, failures, violations))

let replay ~cache ~workloads =
  let cfgs = Sweep.grid Sweep.default_axes in
  let jobs = Array.of_list (List.concat_map (fun w -> List.map (fun a -> (w, a)) dse_archs) workloads) in
  let outs, pool =
    Span.span "pool" (fun () ->
        let parent = Span.current () in
        let domains = min dse_domains (Array.length jobs) in
        Runner.map_stats ~domains
          ~f:(fun j -> Span.job ~parent ~domains (fun () -> replay_job ~cache ~cfgs j))
          jobs)
  in
  let outs = Array.to_list outs in
  let checked = List.filter_map (fun (_, _, v) -> v) outs in
  ( List.concat_map (fun (p, _, _) -> p) outs,
    List.concat_map (fun (_, f, _) -> f) outs,
    List.concat checked,
    List.length checked,
    pool )

let set_pool_extras (pool : Runner.pool_stats) =
  let busy = Array.fold_left (fun a w -> a +. w.Runner.w_busy_s) 0. pool.Runner.p_workers in
  set_extra "pool.busy_s" busy;
  set_extra "pool.utilization" (Runner.utilization pool);
  set_extra "pool.steals" (float_of_int (Runner.total_steals pool))

let dse_sweep =
  {
    name = "dse-sweep";
    domains = dse_domains;
    setup =
      (fun ~seed ->
        let workloads =
          List.map (Sweep.workload_of_kernel ~suite:"quick") (Inputs.quick_suite ~seed)
        in
        mkdir_out ();
        fun ~traced g ->
          (* every pass starts from an empty cache *)
          rm_rf cache_dir;
          let cache = Cache.create ~dir:cache_dir () in
          (* points, cross-check failures, sizing violations, jobs whose
             sizing check ran, pool statistics *)
          let sweep () =
            if traced then replay ~cache ~workloads
            else
              let r =
                Sweep.run ~domains:dse_domains ~cache ~axes:Sweep.default_axes ~archs:dse_archs
                  workloads
              in
              let s = r.Sweep.summary in
              let violations =
                List.filter_map
                  (fun v -> Option.map (fun i -> String.sub v 0 i) (String.index_opt v ':'))
                  s.Sweep.sm_sizing_violations
              in
              ( r.Sweep.points,
                s.Sweep.sm_check_failures,
                violations,
                s.Sweep.sm_sizing_checked,
                s.Sweep.sm_pool )
          in
          let t0 = Unix.gettimeofday () in
          let cold, failures, violations, checked, pool = sweep () in
          if checked <> List.length workloads * List.length dse_archs then
            Gate.fail g "dse-sweep/sizing" "a job skipped its sizing boundary check";
          let cold_wall = Unix.gettimeofday () -. t0 in
          let stored = Cache.disk_stats cache in
          let c0 = Cache.counters cache in
          let t1 = Unix.gettimeofday () in
          let warm, _, _, _, _ = sweep () in
          let warm_wall = Unix.gettimeofday () -. t1 in
          let c1 = Cache.counters cache in
          record_sweep g ~violations ~check_failures:failures cold;
          check_warm g ~cold ~warm;
          set_pool_extras pool;
          set_extra "cache.store.bytes" (float_of_int stored.Cache.bytes);
          set_extra "cache.hit_rate"
            (Cache.hit_rate
               { c1 with Cache.hits = c1.Cache.hits - c0.Cache.hits; misses = c1.Cache.misses - c0.Cache.misses });
          set_extra "cache.corrupt" (float_of_int c1.Cache.corrupt);
          set_extra "sweep.warm_points_per_s" (float_of_int (List.length warm) /. warm_wall);
          Some cold_wall);
  }

(* --- compile-analyze --------------------------------------------------------------- *)

let gen_count = 300

(* Known answers: SPEC leaks exactly on these suite kernels; the
   partitioner splits these into this many access units. *)
let spec_leaks = [ "bfs"; "bc"; "sssp"; "spmv" ]
let known_units = [ ("spmv", 5); ("bc", 3); ("mm", 3) ]

type subject = {
  s_name : string;
  s_func : Dae_ir.Func.t;
  s_suite : bool;
  s_run : (Dae_sim.Machine.invocation list * Dae_ir.Interp.Memory.t) option;
      (** generated kernels: the invocation the sizing verdict is validated on *)
}

(* The sizing verdict's dynamic check on a generated kernel (the
   size --validate path): simulate at the analyzed default depths; the run
   must complete within the analyzer's static cycle bound. *)
let validate_sizing g ~name arch (sz : Dae_analysis.Sizing.t) f (invocations, mem) =
  Gate.guard g name (fun () ->
      let plan = Span.span ~point:name "plan" (fun () -> Retime.plan arch f) in
      let p = Span.span ~point:name "prepare" (fun () -> Retime.prepare plan ~invocations ~mem) in
      let cfg = Config.default in
      match
        Span.span ~point:name ~on_exn:"timing.deadlock"
          ~cycles:(fun r -> r.Machine.cycles)
          (timing_layer cfg)
          (fun () -> Retime.simulate ~collect:true ~cfg p)
      with
      | r ->
        let bound = Dae_analysis.Sizing.bound_of_timelines sz r.Machine.timelines in
        if r.Machine.cycles > bound then
          Gate.fail g name
            (Printf.sprintf "%d cycles exceed the sizing bound %d" r.Machine.cycles bound)
        else
          Gate.sim ~line:false g name ~cycles:r.Machine.cycles ~killed:r.Machine.killed_stores
            ~committed:r.Machine.committed_stores ~stats:(Gate.export r.Machine.stats);
        r.Machine.cycles
      | exception Timing.Deadlock m ->
        Gate.fail g name ("deadlock at the analyzed depths: " ^ m);
        0)

let analyze_point g (s : subject) mode =
  let arch, mname =
    match mode with Pipeline.Dae -> (Machine.Dae, "DAE") | Pipeline.Spec -> (Machine.Spec, "SPEC")
  in
  let name = s.s_name ^ "/" ^ mname in
  match
    Gate.guard g name (fun () ->
        Span.span ~point:name "compile" (fun () -> Pipeline.compile ~mode ~check:true s.s_func))
  with
  | None -> ()
  | Some p ->
    let errors =
      Span.span ~point:name "checker" (fun () -> Dae_analysis.Checker.run p)
      |> List.filter (fun d -> d.Dae_analysis.Diag.sev = Dae_analysis.Diag.Error)
      |> List.length
    in
    if errors > 0 then Gate.fail g name (Printf.sprintf "checker: %d error(s)" errors);
    let sizing =
      Span.span ~point:name "sizing" (fun () -> Dae_analysis.Sizing.analyze ~cfg:Config.default p)
    in
    let taint = Span.span ~point:name "taint" (fun () -> Dae_analysis.Taint.analyze p) in
    (* a leak is a flagged site on a speculative request; a DAE compile
       must have no site at all *)
    let clean = Dae_analysis.Taint.clean taint in
    let leaks = List.exists (fun st -> st.Dae_analysis.Taint.s_speculative) taint.Dae_analysis.Taint.sites in
    if mode = Pipeline.Dae && not clean then Gate.fail g name "DAE compile has taint sites";
    if mode = Pipeline.Spec && s.s_suite && leaks <> List.mem s.s_name spec_leaks then
      Gate.fail g name (if leaks then "unexpected speculative leak" else "expected a speculative leak");
    let units =
      if mode <> Pipeline.Dae then 0
      else begin
        let a =
          Span.span ~point:name "partition" (fun () -> Dae_analysis.Partition.analyze s.s_func)
        in
        let n = List.length a.Dae_analysis.Partition.clusters in
        (match List.assoc_opt s.s_name known_units with
        | Some k when s.s_suite && k <> n ->
          Gate.fail g name (Printf.sprintf "partition: %d units, expected %d" n k)
        | _ -> ());
        n
      end
    in
    let sizing_line, cycles =
      match sizing with
      | Error _ ->
        set_extra "sizing.budget_exceeded"
          (1. +. Option.value ~default:0. (Hashtbl.find_opt extra "sizing.budget_exceeded"));
        ("budget", 0)
      | Ok sz when Dae_analysis.Sizing.deadlocks sz ->
        Gate.fail g name "sizing: deadlock at the default depths";
        ("deadlock", 0)
      | Ok sz -> (
        ( "free",
          match s.s_run with
          | None -> 0
          | Some run -> Option.value ~default:0 (validate_sizing g ~name arch sz s.s_func run) ))
    in
    Gate.line g name
      (Printf.sprintf "checker:%d sizing:%s leak:%b units:%d cycles:%d" errors sizing_line
         leaks units cycles);
    Gate.verdict g name Arith.Completed

let compile_analyze =
  {
    name = "compile-analyze";
    domains = 1;
    setup =
      (fun ~seed ->
        let gen =
          List.mapi
            (fun i (x : Gen.t) ->
              {
                s_name = Printf.sprintf "gen%03d" i;
                s_func = x.Gen.func;
                s_suite = false;
                s_run = Some ([ x.Gen.args ], x.Gen.mem ());
              })
            (Inputs.generated ~seed ~count:gen_count)
        in
        let suite =
          List.map
            (fun (k : Kernels.t) ->
              { s_name = k.Kernels.name; s_func = k.Kernels.build (); s_suite = true; s_run = None })
            (Inputs.paper_suite ~seed)
        in
        fun ~traced:_ g ->
          set_extra "sizing.budget_exceeded" 0.;
          List.iter
            (fun s -> List.iter (analyze_point g s) [ Pipeline.Dae; Pipeline.Spec ])
            (gen @ suite);
          None);
  }

let all = [ paper_scratchpad; hier_graph; dse_sweep; compile_analyze ]
