(** Design-space exploration: a memoized configuration sweep over the
    re-timing engine.

    One sweep point is (workload × architecture × configuration). Points
    sharing a workload and architecture share their functional execution:
    the engine builds one {!Dae_sim.Retime.plan} per (workload, arch) job,
    {!Dae_sim.Retime.prepare}s lazily on the first cache miss, and re-times
    every configuration of the grid against the stored traces. Results are
    memoized in a content-addressed on-disk cache ({!Dae_sim.Cache}) keyed
    by plan digest × workload instance × configuration × engine version, so
    a warm re-sweep touches neither {!Dae_sim.Exec} nor
    {!Dae_sim.Timing} — it is pure cache lookups.

    The same evaluator ({!job}, {!eval}, {!validate_sizing}) runs every
    bench job and [daec size --validate].

    Jobs fan out over the {!Dae_sim.Runner} work-stealing pool (one job
    per workload×arch; the grid loop runs inside the job, keeping cache
    and trace locality per domain).

    Trust, but verify: [check] samples per job re-run a fresh
    {!Dae_sim.Machine.simulate} (plan + prepare + simulate, independent of
    the result cache and of the job's shared prepared traces) at swept
    configurations and compare cycles, kill/commit counts and the complete
    stall partition bit-for-bit; [sizing_check] cross-validates the static
    sizing analyzer's minimum-depth verdict against the sweep's observed
    deadlock boundary (a deadlock at capacities at or above the analyzer's
    minima would disprove the analyzer). Both report violations in the
    summary rather than raising. *)

open Dae_ir
module Machine = Dae_sim.Machine
module Config = Dae_sim.Config
module Cache = Dae_sim.Cache

(** {1 Grid} *)

type axes = {
  req_fifo : int list;
  val_fifo : int list;
  stv_fifo : int list;
  lq : int list;
  sq : int list;
  hier : Config.hierarchy list;
      (** memory-hierarchy axis; [[]] keeps the base hierarchy, making
          five-axis grids byte-identical to pre-hierarchy versions *)
}
(** Capacity axes (plus the hierarchy axis); every other knob keeps the
    base configuration's value. [0] capacity entries are deliberately
    invalid configurations ({!Config.validate} rejects them): the sweep
    runs those with validation off to chart the deadlock boundary the
    static sizing analyzer predicts. *)

val default_axes : axes
(** 6×4×3×3×3 = 648 configurations per (workload, arch):
    req [0;1;2;4;8;16], val [0;1;2;8], stv [0;1;4], lq [1;2;4],
    sq [2;8;32]; base hierarchy. *)

val quick_axes : axes
(** 3×2×1×1×2 = 12 configurations — the CI grid; base hierarchy. *)

val hierarchy_axes : axes
(** The memory-hierarchy grid ([daec sweep --grid hierarchy]): capacities
    pinned at the capacity grid's maxima (16/16/16, lq 4, sq 32) and 25
    hierarchy points — the scratchpad anchor plus
    {!Config.default_geom} varied over banks [1;2] × ways [1;2] ×
    MSHRs [2;4;8] × \{default DRAM; a starved 2-bank slow DRAM\}. Every
    point shares its job's single functional execution, so the whole
    grid costs one prepare plus 25 re-times per (workload, arch). *)

val grid : ?base:Config.t -> axes -> Config.t list
(** All combinations, in a deterministic order (req outermost, then
    val/stv/lq/sq, hierarchy innermost). *)

(** {1 Workloads} *)

type workload = {
  w_name : string;
  w_instance : string;
      (** cache identity of the workload {e instance}: name alone is not
          enough (the quick and paper suites reuse kernel names at
          different sizes), so callers tag the suite or fold input
          parameters in *)
  w_func : Func.t;
  w_invocations : Machine.invocation list;
  w_mem : Dae_ir.Interp.Memory.t;
  w_check : Dae_ir.Interp.Memory.t -> (unit, string) result;
      (** reference check of the final memory after each prepare *)
}

val workload_of_kernel : suite:string -> Dae_workloads.Kernels.t -> workload
(** Builds the kernel's IR, memory image and invocation list, with
    {!Dae_workloads.Kernels.check} as [w_check]; [w_instance] is
    ["<suite>/<name>"]. *)

(** {1 Points and results} *)

type status = Cycles of int | Deadlock
(** A point either completes in a cycle count or deadlocks (possible only
    at capacity-0 axes or, if the sizing analyzer is wrong, above them). *)

type point = {
  pt_workload : string;
  pt_arch : Machine.arch;
  pt_cfg : string;  (** {!Config.key} *)
  pt_status : status;
  pt_killed : int;
  pt_committed : int;
  pt_stats : (string * (string * int) list) list;
      (** unit -> stall cause -> cycles; the complete partition *)
  pt_cached : bool;  (** served from the on-disk cache *)
}

(** {1 The evaluator} *)

type job
(** One workload on one {!Dae_sim.Retime.plan} (the caller picks the
    architecture and N-way partition), its lazily prepared traces, and
    the cache its results are memoized in. *)

val job : cache:Cache.t -> workload -> Dae_sim.Retime.plan -> job
(** Does no work: the first cache miss prepares, then runs [w_check] on
    the final memory. A golden-model or [w_check] failure raises
    {!Dae_sim.Retime.Check_failed} (naming kernel and architecture) from
    that {!eval} or {!validate_sizing}, and nothing is stored. *)

val job_plan : job -> Dae_sim.Retime.plan

val job_prepares : job -> int
(** Functional executions this job has run: 0 or 1. *)

val eval : job -> Config.t -> point
(** The point at one configuration, from the cache or re-timed (with
    validation off, so capacity-0 probes yield {!Deadlock}) and stored
    under {!Cache.version}, ["sweep-point/1"], the plan digest,
    [w_instance] and {!Config.key}. Callers that must reject an invalid
    configuration run {!Config.validate} first. *)

type probe =
  | Probe_cycles of int  (** completed: the stall only shifts *)
  | Probe_deadlock of string  (** the dynamic deadlock detector fired *)
  | Probe_rejected of string  (** the engine refused the configuration *)

type sizing_validation = {
  sv_min : (int * int, string) result;
      (** cycles and predicted bound at the analyzer's minimum depths *)
  sv_probe : (Dae_analysis.Channel.kind * (probe, string) result) option;
      (** the critical channel and its minimum − 1 run; [None] without a
          critical channel *)
}

val validate_sizing :
  job ->
  cfg:Config.t ->
  path_limit:int ->
  Dae_analysis.Sizing.t ->
  sizing_validation
(** Cross-validate a sizing result (analyzed at [cfg] and [path_limit])
    against the engine: re-time at [min_cfg] and bound the cycles, then
    re-time the {!Dae_analysis.Sizing.critical_decrement} probe with
    validation off. Outcomes other than [Error] are memoized under
    ["size-validate/1"] keys, so a warm validation prepares nothing. *)

val sizing_ok : sizing_validation -> bool
(** The minimum-depth run met its bound and no run failed. *)

(** {1 Sweeps} *)

type summary = {
  sm_points : int;
  sm_deadlocked : int;
  sm_wall_s : float;
  sm_prepares : int;  (** functional executions actually run *)
  sm_cache : Cache.counters;
  sm_hit_rate : float;
  sm_pool : Dae_sim.Runner.pool_stats;
  sm_checks : int;  (** sampled full-simulation cross-checks run *)
  sm_check_failures : string list;
  sm_sizing_checked : int;
  sm_sizing_violations : string list;
}

type t = { points : point list; summary : summary }
(** [points] are in deterministic order: workloads × archs in argument
    order, configurations in {!grid} order — cold and warm sweeps of the
    same request produce byte-identical renderings. *)

val run :
  ?domains:int ->
  ?base:Config.t ->
  ?check:int ->
  ?sizing_check:bool ->
  cache:Cache.t ->
  axes:axes ->
  archs:Machine.arch list ->
  workload list ->
  t
(** Sweep the full grid: one {!job} per (workload, arch), {!eval} at
    every configuration. [check] (default 1) samples that many completed
    points per (workload, arch) job and re-runs them through a fresh
    {!Machine.simulate} — its own plan, prepare and replay, sharing
    neither the cache nor the job's prepared traces — comparing cycles,
    kills/commits and stall partitions exactly; cached points are checked
    the same way, so a poisoned cache entry cannot hide. [sizing_check] (default true) runs
    the static sizing analyzer per decoupled job and flags any swept
    deadlock at capacities ≥ the analyzer's minima. *)

val pp_point : Format.formatter -> point -> unit
(** One line: [workload arch cfg status] — the `--expect` rendering the
    CI cold/warm diff pins. *)

val pp_summary : Format.formatter -> summary -> unit
