(** Top-level machine: compile a kernel for one of the four evaluated
    architectures and simulate a sequence of invocations (graph kernels run
    once per level/round, threading memory through).

    A thin wrapper over {!Retime}, the one simulation path: every
    decoupled invocation is checked against the sequential golden model
    (final memory and per-array commit order) and the AGU/CU streams are
    checked against each other — a run that returns has proved its own
    sequential consistency. The types below are {!Retime}'s, re-exported
    so both module paths name the same values. *)

type arch = Retime.arch =
  | Sta  (** static HLS baseline *)
  | Dae  (** decoupling without speculation *)
  | Spec  (** the paper's contribution *)
  | Oracle  (** SPEC with mis-speculated requests filtered: an upper bound *)

val arch_name : arch -> string

type invocation = Retime.invocation

type timeline = Retime.timeline = {
  t_invocation : int;
  t_agu : Trace.unit_trace;
  t_aus : Trace.unit_trace array;
  t_cu : Trace.unit_trace;
  t_timing : Timing.result;
}
(** See {!Retime.timeline}. *)

type result = Retime.result = {
  arch : arch;
  cycles : int;
  invocations : int;
  killed_stores : int;
  committed_stores : int;
  misspec_rate : float;
  area : Area.breakdown;
  memory : Dae_ir.Interp.Memory.t;
  pipeline : Dae_core.Pipeline.t option;
  stats : Stats.keyed;
  timelines : timeline list;
  mem_events : Timing.mem_event array list;
}
(** See {!Retime.result}. *)

exception Check_failed of string
(** The same exception as {!Retime.Check_failed}. *)

(** [Retime.plan ?partition arch f |> Retime.prepare ~invocations ~mem
    |> Retime.simulate ~cfg] (default {!Config.default}). [validate]
    (default true) runs {!Config.validate} before any functional work;
    deadlock-boundary probes pass [~validate:false] to drive the timing
    engine with a rejected configuration. [w], [collect], [record_mem] and
    [max_cycles] are {!Retime.simulate}'s. [partition] slices the kernel
    along an N-way address-stream assignment ({!Dae_core.Decouple.run_n});
    it requires arch {!Dae} (ignored by {!Sta}, rejected by the pipeline
    for {!Spec}/{!Oracle}) and defaults to the classic 2-way split. The
    returned [memory] is this call's own copy.
    @raise Invalid_argument on an invalid configuration.
    @raise Check_failed when a decoupled run disagrees with the golden
    model. *)
val simulate :
  ?cfg:Config.t ->
  ?validate:bool ->
  ?w:Area.weights ->
  ?collect:bool ->
  ?record_mem:bool ->
  ?max_cycles:int ->
  ?partition:Dae_core.Decouple.assignment ->
  arch ->
  Dae_ir.Func.t ->
  invocations:invocation list ->
  mem:Dae_ir.Interp.Memory.t ->
  result

val pp_stats : result Fmt.t
(** The stall-attribution breakdown of {!result.stats} as a table (one
    column per unit, one row per nonzero cause, cycles and share). *)
