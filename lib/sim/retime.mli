(** Trace-driven re-timing: functional execution once, timing replay many.

    A simulation has two very different costs: the functional
    co-simulation (interpret both slices, serve memory, golden-check) and
    the timing replay (schedule the recorded channel events against bounded
    FIFOs). Only the replay depends on the configuration — {!Exec} takes no
    [Config.t], and for ORACLE the {!Timing.oracle_filter} is likewise
    config-independent — so a design-space sweep that re-runs {!Exec} per
    point does the expensive half of the work [|grid|] times for nothing.

    This module is the one simulation path, split at that seam:

    + {!plan} compiles a kernel for one architecture (slice, lower, digest)
      without executing anything — enough to form a cache key;
    + {!prepare} runs the functional execution once over the invocation
      sequence, golden-checks every invocation, oracle-filters when the
      plan is for {!Oracle}, and persists the compact traces;
    + {!simulate} replays the stored traces under an arbitrary
      configuration.

    {!Machine.simulate} is exactly [plan |> prepare |> simulate]. Every
    prepared run is checked against the sequential golden model (final
    memory and per-array commit order) and the AGU/CU streams are checked
    against each other, so a result that comes back has proved its own
    sequential consistency.

    STA is supported through the same interface: {!prepare} stores the
    golden runs, and {!simulate} re-derives cycles via
    {!Sta.cycles_of_run} (its initiation interval does depend on the
    configuration's port counts).

    Each configuration after the first costs only the replay — on the
    evaluation suite that is the difference between a 9-job smoke run and
    a 17 000-point sweep in the same wall-clock budget. *)

open Dae_ir

type arch =
  | Sta  (** static HLS baseline *)
  | Dae  (** decoupling without speculation *)
  | Spec  (** the paper's contribution *)
  | Oracle  (** SPEC with mis-speculated requests filtered: an upper bound *)

val arch_name : arch -> string

type invocation = (string * Types.value) list

type timeline = {
  t_invocation : int;  (** 0-based invocation index *)
  t_agu : Trace.unit_trace;  (** as replayed (ORACLE: post-filter) *)
  t_aus : Trace.unit_trace array;
      (** extra access units of an N-way partition; [[||]] for 2-way *)
  t_cu : Trace.unit_trace;
  t_timing : Timing.result;
}
(** One invocation's replay, as consumed by {!Trace_export}. *)

type result = {
  arch : arch;
  cycles : int;
  invocations : int;
  killed_stores : int;
  committed_stores : int;
  misspec_rate : float;
  area : Area.breakdown;
  memory : Interp.Memory.t;  (** final memory, for workload-level checks *)
  pipeline : Dae_core.Pipeline.t option;  (** [None] for {!Sta} *)
  stats : Stats.keyed;
      (** per-unit cycle attribution merged over all invocations; every
          unit's counters sum exactly to [cycles] ({!Sta}: one unit
          ["STA"], all Busy) *)
  timelines : timeline list;
      (** per-invocation replays with channel-depth samples; empty unless
          [simulate ~collect:true] *)
  mem_events : Timing.mem_event array list;
      (** per-invocation committed-order memory event logs for the
          {!Mem_model} oracle; empty unless [simulate ~record_mem:true] *)
}

exception Check_failed of string
(** Some invocation's functional run disagreed with the sequential golden
    model. The message names the kernel and architecture. *)

type plan
(** A compiled, lowered, digested kernel×architecture — no execution yet. *)

val plan : ?partition:Dae_core.Decouple.assignment -> arch -> Func.t -> plan
(** Compile [f] for [arch]: slice + {!Lower.compile} for the decoupled
    architectures, {!Sta.analyze}-ready for STA. Pure compilation — cheap
    enough to form cache keys for points that will never be simulated.
    [partition] slices along an N-way address-stream assignment ({!Dae}
    only — ignored by {!Sta}, rejected by the pipeline for {!Spec} and
    {!Oracle}; default: the classic 2-way split). The partition is baked
    into the lowered unit programs, so {!plan_digest} already
    distinguishes N-way plans. *)

val plan_digest : plan -> string
(** Content identity of the plan: architecture name plus
    {!Lower.digest} (decoupled) or a digest of the printed IR (STA).
    Equal digests make {!simulate} results interchangeable for the same
    invocation sequence and initial memory — the result cache's key folds
    this together with a workload-instance id and {!Config.key}. *)

val arch : plan -> arch

val pipeline : plan -> Dae_core.Pipeline.t option
(** The compiled pipeline ([None] for STA) — the sweep engine feeds it to
    the static sizing analyzer without recompiling. *)

val area : ?w:Area.weights -> plan -> cfg:Config.t -> Area.breakdown
(** The area model for [plan] under [cfg] — the [area] field {!simulate}
    returns: {!Area.sta} for STA, {!Area.decoupled} otherwise, with
    ORACLE's poison logic ignored. Needs no execution, so a cached result
    can be completed without a prepare. *)

type prepared
(** Executed traces plus everything {!simulate} needs: per-invocation
    trace pairs (post oracle-filter), golden runs (STA), kill/commit
    counts, final memory, load subscribers. *)

val prepare :
  plan -> invocations:invocation list -> mem:Interp.Memory.t -> prepared
(** Run the functional half once. [mem] is copied, never mutated.
    @raise Check_failed on golden disagreement. *)

val final_memory : prepared -> Interp.Memory.t
(** Final memory after the prepared invocation sequence — what
    {!simulate} returns in [result.memory]. Lets a cache-hit path rebuild
    a result's memory without a replay; shared, treat as read-only. *)

val trace_digest : prepared -> string
(** Digest of the stored per-invocation traces ({!Trace.digest} folded
    over all units, STA: over golden iteration counts) — the content
    identity of a prepare, for comparing two functional runs without
    keeping both trace sets. *)

val simulate :
  ?validate:bool ->
  ?w:Area.weights ->
  ?collect:bool ->
  ?record_mem:bool ->
  ?max_cycles:int ->
  ?scheduler:Timing.scheduler ->
  cfg:Config.t ->
  prepared ->
  result
(** Re-time the stored traces under [cfg]. The returned [memory] field is
    shared between calls on one [prepared] (timing cannot change it);
    treat it as read-only. [validate] (default true) runs
    {!Config.validate} first; deadlock-boundary probes pass
    [~validate:false] to re-time under a rejected configuration.
    [collect] (default false) additionally keeps every invocation's
    traces, retire times and channel-depth samples for the timeline
    exporter; [record_mem] (default false) keeps each invocation's memory
    event log; neither ever changes cycles or stats. [max_cycles] caps
    each invocation's replay (overruns raise {!Timing.Timing_error}).
    [scheduler] is a test hook, forwarded to {!Timing.run_units}: the
    default event wheel is the production path, and the seed calendar is
    the bit-identical reference the scheduler-equivalence suite replays.
    @raise Invalid_argument on an invalid configuration (when [validate]).
    @raise Timing.Deadlock when the configuration deadlocks the replay. *)
