(* Memoized design-space sweep over the re-timing engine (see sweep.mli).

   Shape: one pool job per (workload, arch). Inside a job the grid loop
   consults the cache per configuration and lazily runs the functional
   execution (Retime.prepare) on the first miss — a fully warm job never
   executes a single instruction, and a fully cold job executes each
   invocation exactly once for the whole grid. Points carry their full
   stall partition so cached results remain cross-checkable bit-for-bit
   against a fresh simulation. The job/eval pair is also the evaluator
   the bench harness and `daec size --validate` run every point on. *)

open Dae_ir
module Machine = Dae_sim.Machine
module Config = Dae_sim.Config
module Cache = Dae_sim.Cache
module Retime = Dae_sim.Retime
module Runner = Dae_sim.Runner
module Stats = Dae_sim.Stats
module Timing = Dae_sim.Timing
module Kernels = Dae_workloads.Kernels

(* --- grid ----------------------------------------------------------------- *)

type axes = {
  req_fifo : int list;
  val_fifo : int list;
  stv_fifo : int list;
  lq : int list;
  sq : int list;
  hier : Config.hierarchy list; (* [] = keep the base hierarchy *)
}

let default_axes =
  {
    req_fifo = [ 0; 1; 2; 4; 8; 16 ];
    val_fifo = [ 0; 1; 2; 8 ];
    stv_fifo = [ 0; 1; 4 ];
    lq = [ 1; 2; 4 ];
    sq = [ 2; 8; 32 ];
    hier = [];
  }

let quick_axes =
  {
    req_fifo = [ 0; 1; 16 ];
    val_fifo = [ 1; 16 ];
    stv_fifo = [ 16 ];
    lq = [ 4 ];
    sq = [ 4; 32 ];
    hier = [];
  }

(* The hierarchy grid holds capacities at the capacity grid's maxima (no
   deadlock boundary to chart — every point is valid) and sweeps the
   memory system instead: scratchpad anchor, then banks × ways × MSHRs
   crossed with a healthy and a starved DRAM. *)
let hierarchy_axes =
  let g = Config.default_geom in
  let starved_dram =
    { Config.dram_banks = 2; row_words = 128; t_row_hit = 30; t_row_miss = 80; t_bus = 8 }
  in
  let geoms =
    List.concat_map
      (fun banks ->
        List.concat_map
          (fun ways ->
            List.concat_map
              (fun mshrs ->
                List.map
                  (fun dram -> Config.Hierarchy { g with banks; ways; mshrs; dram })
                  [ g.Config.dram; starved_dram ])
              [ 2; 4; 8 ])
          [ 1; 2 ])
      [ 1; 2 ]
  in
  {
    req_fifo = [ 16 ];
    val_fifo = [ 16 ];
    stv_fifo = [ 16 ];
    lq = [ 4 ];
    sq = [ 32 ];
    hier = Config.Scratchpad :: geoms;
  }

let grid ?(base = Config.default) (a : axes) : Config.t list =
  (* hierarchy innermost, defaulting to the base hierarchy alone, so
     grids over the original five axes stay byte-identical in order and
     content to pre-hierarchy versions *)
  let hiers =
    match a.hier with [] -> [ base.Config.hierarchy ] | hs -> hs
  in
  List.concat_map
    (fun rf ->
      List.concat_map
        (fun vf ->
          List.concat_map
            (fun svf ->
              List.concat_map
                (fun lq ->
                  List.concat_map
                    (fun sq ->
                      List.map
                        (fun hier ->
                          {
                            base with
                            Config.request_fifo_capacity = rf;
                            value_fifo_capacity = vf;
                            store_value_fifo_capacity = svf;
                            load_queue_size = lq;
                            store_queue_size = sq;
                            hierarchy = hier;
                          })
                        hiers)
                    a.sq)
                a.lq)
            a.stv_fifo)
        a.val_fifo)
    a.req_fifo

(* --- workloads ------------------------------------------------------------- *)

type workload = {
  w_name : string;
  w_instance : string;
  w_func : Func.t;
  w_invocations : Machine.invocation list;
  w_mem : Interp.Memory.t;
  w_check : Interp.Memory.t -> (unit, string) result;
}

let workload_of_kernel ~suite (k : Kernels.t) =
  {
    w_name = k.Kernels.name;
    w_instance = suite ^ "/" ^ k.Kernels.name;
    w_func = k.Kernels.build ();
    w_invocations = k.Kernels.invocations ();
    w_mem = k.Kernels.init_mem ();
    w_check = k.Kernels.check;
  }

(* --- points ---------------------------------------------------------------- *)

type status = Cycles of int | Deadlock

type point = {
  pt_workload : string;
  pt_arch : Machine.arch;
  pt_cfg : string;
  pt_status : status;
  pt_killed : int;
  pt_committed : int;
  pt_stats : (string * (string * int) list) list;
  pt_cached : bool;
}

(* The complete partition, all causes in declaration order — a canonical
   form two independent simulations can be compared on bit-for-bit. *)
let export_stats (keyed : Stats.keyed) =
  List.map
    (fun (unit, t) ->
      ( unit,
        List.map (fun c -> (Stats.cause_name c, Stats.get t c)) Stats.all_causes
      ))
    keyed

(* On-disk payload. The key already pins workload instance, plan digest,
   configuration and engine version; the payload is just the result. *)
type cached_point = {
  cp_status : status;
  cp_killed : int;
  cp_committed : int;
  cp_stats : (string * (string * int) list) list;
}

let payload_tag = "sweep-point/1"

type summary = {
  sm_points : int;
  sm_deadlocked : int;
  sm_wall_s : float;
  sm_prepares : int;
  sm_cache : Cache.counters;
  sm_hit_rate : float;
  sm_pool : Runner.pool_stats;
  sm_checks : int;
  sm_check_failures : string list;
  sm_sizing_checked : int;
  sm_sizing_violations : string list;
}

type t = { points : point list; summary : summary }

(* --- the evaluator: one cached plan -> prepare -> re-time job --------------- *)

type job = {
  j_cache : Cache.t;
  j_workload : workload;
  j_plan : Retime.plan;
  j_prepared : Retime.prepared Lazy.t;
}

let job ~cache w plan =
  let prepared =
    lazy
      (let pr =
         Retime.prepare plan ~invocations:w.w_invocations ~mem:w.w_mem
       in
       (* reference-check the functional run before any point derived
          from it can be stored *)
       (match w.w_check (Retime.final_memory pr) with
       | Ok () -> ()
       | Error msg ->
         raise
           (Retime.Check_failed
              (Fmt.str "%s/%s: reference check: %s" w.w_name
                 (Machine.arch_name (Retime.arch plan))
                 msg)));
       pr)
  in
  { j_cache = cache; j_workload = w; j_plan = plan; j_prepared = prepared }

let job_plan j = j.j_plan
let job_prepares j = if Lazy.is_val j.j_prepared then 1 else 0

let point_of_cached j cfg_key (cp : cached_point) ~cached =
  {
    pt_workload = j.j_workload.w_name;
    pt_arch = Retime.arch j.j_plan;
    pt_cfg = cfg_key;
    pt_status = cp.cp_status;
    pt_killed = cp.cp_killed;
    pt_committed = cp.cp_committed;
    pt_stats = cp.cp_stats;
    pt_cached = cached;
  }

let cached_of_simulation run =
  match run () with
  | r ->
    {
      cp_status = Cycles r.Machine.cycles;
      cp_killed = r.Machine.killed_stores;
      cp_committed = r.Machine.committed_stores;
      cp_stats = export_stats r.Machine.stats;
    }
  | exception Timing.Deadlock _ ->
    { cp_status = Deadlock; cp_killed = 0; cp_committed = 0; cp_stats = [] }

let eval j cfg =
  let cfg_key = Config.key cfg in
  let key =
    Cache.key
      [ Cache.version; payload_tag; Retime.plan_digest j.j_plan;
        j.j_workload.w_instance; cfg_key ]
  in
  match (Cache.find j.j_cache key : cached_point option) with
  | Some cp -> point_of_cached j cfg_key cp ~cached:true
  | None ->
    let cp =
      cached_of_simulation (fun () ->
          Retime.simulate ~validate:false ~cfg (Lazy.force j.j_prepared))
    in
    Cache.store ~kind:"sweep-point" j.j_cache key cp;
    point_of_cached j cfg_key cp ~cached:false

(* --- sizing validation: the analyzer's minima against the re-timed engine -- *)

type probe =
  | Probe_cycles of int
  | Probe_deadlock of string
  | Probe_rejected of string

type sizing_validation = {
  sv_min : (int * int, string) result;
  sv_probe : (Dae_analysis.Channel.kind * (probe, string) result) option;
}

let sizing_ok v =
  (match v.sv_min with Ok (cycles, bound) -> cycles <= bound | Error _ -> false)
  && match v.sv_probe with Some (_, Error _) -> false | _ -> true

(* [key]'s size-validate entry, or [compute]'s result — stored unless
   an [Error] *)
let memo j key compute =
  match Cache.find j.j_cache key with
  | Some v -> Ok v
  | None ->
    Result.map
      (fun v ->
        Cache.store ~kind:"size-validate" j.j_cache key v;
        v)
      (compute ())

(* Both probes are memoized under the "size-validate/1" tag; the [sub]
   component ("min" or "probe") keeps their two payload types apart. *)
let validate_sizing j ~cfg ~path_limit (sz : Dae_analysis.Sizing.t) =
  let vkey sub cfg' =
    Cache.key
      [ Cache.version; "size-validate/1"; sub; Retime.plan_digest j.j_plan;
        j.j_workload.w_instance; string_of_int path_limit; Config.key cfg;
        Config.key cfg' ]
  in
  let simulate ~validate ~collect cfg =
    Retime.simulate ~validate ~collect ~cfg (Lazy.force j.j_prepared)
  in
  let min_cfg = sz.Dae_analysis.Sizing.min_cfg in
  let sv_min =
    memo j (vkey "min" min_cfg) (fun () ->
        match simulate ~validate:true ~collect:true min_cfg with
        | r ->
          Ok
            ( r.Machine.cycles,
              Dae_analysis.Sizing.bound_of_timelines sz r.Machine.timelines )
        | exception e -> Error (Printexc.to_string e))
  in
  let sv_probe =
    Option.map
      (fun (chan, probe_cfg) ->
        ( chan,
          memo j (vkey "probe" probe_cfg) (fun () ->
              match simulate ~validate:false ~collect:false probe_cfg with
              | r -> Ok (Probe_cycles r.Machine.cycles)
              | exception Timing.Deadlock msg -> Ok (Probe_deadlock msg)
              | exception Invalid_argument msg -> Ok (Probe_rejected msg)
              | exception e -> Error (Printexc.to_string e)) ))
      (Dae_analysis.Sizing.critical_decrement sz)
  in
  { sv_min; sv_probe }

(* --- one (workload, arch) grid job ----------------------------------------- *)

type job_out = {
  o_points : (Config.t * point) list;
  o_prepares : int;
  o_checks : int;
  o_check_failures : string list;
  o_sizing_checked : int;
  o_sizing_violations : string list;
}

(* Re-run one swept point from scratch — a fresh Machine.simulate, i.e.
   plan + prepare + simulate, sharing neither the cache nor the job's
   prepared traces — and compare verdict, cycles, kill/commit counts and
   the whole stall partition. *)
let cross_check w (cfg, (pt : point)) =
  let full =
    cached_of_simulation (fun () ->
        Machine.simulate ~cfg ~validate:false pt.pt_arch w.w_func
          ~invocations:w.w_invocations ~mem:w.w_mem)
  in
  let where =
    Fmt.str "%s/%s@%s" w.w_name (Machine.arch_name pt.pt_arch) pt.pt_cfg
  in
  match (pt.pt_status, full.cp_status) with
  | Deadlock, Deadlock -> Ok ()
  | Cycles a, Cycles b when a <> b ->
    Error (Fmt.str "%s: swept %d cycles, fresh %d" where a b)
  | Cycles _, Cycles _ ->
    if pt.pt_killed <> full.cp_killed || pt.pt_committed <> full.cp_committed
    then Error (Fmt.str "%s: kill/commit counts diverge" where)
    else if pt.pt_stats <> full.cp_stats then
      Error (Fmt.str "%s: stall partitions diverge" where)
    else Ok ()
  | Cycles c, Deadlock ->
    Error (Fmt.str "%s: swept %d cycles, fresh run deadlocks" where c)
  | Deadlock, Cycles c ->
    Error (Fmt.str "%s: swept deadlock, fresh run takes %d cycles" where c)

let capacities (c : Config.t) =
  ( c.Config.request_fifo_capacity,
    c.Config.value_fifo_capacity,
    c.Config.store_value_fifo_capacity,
    c.Config.load_queue_size,
    c.Config.store_queue_size )

let covers ~(min : Config.t) (c : Config.t) =
  let r, v, s, l, q = capacities c and mr, mv, ms, ml, mq = capacities min in
  r >= mr && v >= mv && s >= ms && l >= ml && q >= mq

let run_job ~cache ~base ~check ~sizing_check ~cfgs (w, arch) : job_out =
  let j = job ~cache w (Retime.plan arch w.w_func) in
  let points = List.map (fun cfg -> (cfg, eval j cfg)) cfgs in
  (* Sampled equivalence audit: [check] points spread over the grid,
     cached or not — a poisoned cache entry fails the same comparison a
     wrong replay would. *)
  let samples =
    if check <= 0 then []
    else
      let n = List.length points in
      let step = max 1 (n / check) in
      List.filteri (fun i _ -> i mod step = 0) points
      |> List.filteri (fun i _ -> i < check)
  in
  let failures =
    List.filter_map
      (fun s -> match cross_check w s with Ok () -> None | Error e -> Some e)
      samples
  in
  (* Deadlock-boundary cross-validation against the static analyzer: a
     deadlock at capacities at or above the analyzer's minima would
     disprove the sizing proof. *)
  let sizing_checked, sizing_violations =
    match (sizing_check, Retime.pipeline j.j_plan) with
    | false, _ | _, None -> (0, [])
    | true, Some p -> (
      match Dae_analysis.Sizing.analyze ~cfg:base p with
      | Error _ -> (0, [])
      | Ok sz ->
        let min = sz.Dae_analysis.Sizing.min_cfg in
        ( 1,
          List.filter_map
            (fun (cfg, pt) ->
              match pt.pt_status with
              | Deadlock when covers ~min cfg ->
                Some
                  (Fmt.str
                     "%s/%s@%s: deadlock at capacities >= sizing minima (%s)"
                     w.w_name (Machine.arch_name arch) pt.pt_cfg
                     (Config.key min))
              | _ -> None)
            points ))
  in
  {
    o_points = points;
    o_prepares = job_prepares j;
    o_checks = List.length samples;
    o_check_failures = failures;
    o_sizing_checked = sizing_checked;
    o_sizing_violations = sizing_violations;
  }

let counters_diff (a : Cache.counters) (b : Cache.counters) : Cache.counters =
  {
    Cache.hits = b.Cache.hits - a.Cache.hits;
    misses = b.Cache.misses - a.Cache.misses;
    corrupt = b.Cache.corrupt - a.Cache.corrupt;
    stores = b.Cache.stores - a.Cache.stores;
  }

let run ?domains ?(base = Config.default) ?(check = 1) ?(sizing_check = true)
    ~cache ~axes ~(archs : Machine.arch list) (workloads : workload list) : t =
  let cfgs = grid ~base axes in
  let before = Cache.counters cache in
  let jobs =
    Array.of_list
      (List.concat_map (fun w -> List.map (fun a -> (w, a)) archs) workloads)
  in
  let outs, pool =
    Runner.map_stats ?domains
      ~f:(run_job ~cache ~base ~check ~sizing_check ~cfgs)
      jobs
  in
  let after = Cache.counters cache in
  let cache_delta = counters_diff before after in
  let points =
    List.concat_map (fun j -> List.map snd j.o_points) (Array.to_list outs)
  in
  let sum f = Array.fold_left (fun acc j -> acc + f j) 0 outs in
  let gather f =
    List.concat_map f (Array.to_list outs)
  in
  {
    points;
    summary =
      {
        sm_points = List.length points;
        sm_deadlocked =
          List.length
            (List.filter (fun p -> p.pt_status = Deadlock) points);
        sm_wall_s = pool.Runner.p_wall_s;
        sm_prepares = sum (fun j -> j.o_prepares);
        sm_cache = cache_delta;
        sm_hit_rate = Cache.hit_rate cache_delta;
        sm_pool = pool;
        sm_checks = sum (fun j -> j.o_checks);
        sm_check_failures = gather (fun j -> j.o_check_failures);
        sm_sizing_checked = sum (fun j -> j.o_sizing_checked);
        sm_sizing_violations = gather (fun j -> j.o_sizing_violations);
      };
  }

(* --- rendering ------------------------------------------------------------- *)

let pp_point ppf (p : point) =
  Fmt.pf ppf "%s %s %s %s" p.pt_workload
    (Machine.arch_name p.pt_arch)
    p.pt_cfg
    (match p.pt_status with
    | Cycles c -> Fmt.str "cycles:%d killed:%d committed:%d" c p.pt_killed p.pt_committed
    | Deadlock -> "deadlock")

let pp_summary ppf (s : summary) =
  Fmt.pf ppf
    "@[<v>points: %d (%d deadlocked)@,\
     wall: %.3f s (%.0f points/s)@,\
     functional executions: %d@,\
     cache: %d hits / %d misses (%.1f%% hit rate), %d stored, %d corrupt@,\
     pool: %d domains, %.0f%% utilization, %d steals@,\
     cross-checks: %d run, %d failed@,\
     sizing: %d jobs validated, %d violations@]"
    s.sm_points s.sm_deadlocked s.sm_wall_s
    (if s.sm_wall_s > 0. then float_of_int s.sm_points /. s.sm_wall_s else 0.)
    s.sm_prepares s.sm_cache.Cache.hits s.sm_cache.Cache.misses
    (100. *. s.sm_hit_rate)
    s.sm_cache.Cache.stores s.sm_cache.Cache.corrupt s.sm_pool.Runner.p_domains
    (100. *. Runner.utilization s.sm_pool)
    (Runner.total_steals s.sm_pool)
    s.sm_checks
    (List.length s.sm_check_failures)
    s.sm_sizing_checked
    (List.length s.sm_sizing_violations)
