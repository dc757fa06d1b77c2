(* Top-level machine (see machine.mli): the single-configuration entry
   point over Retime's plan → prepare → simulate path. *)

type arch = Retime.arch = Sta | Dae | Spec | Oracle

let arch_name = Retime.arch_name

type invocation = Retime.invocation

type timeline = Retime.timeline = {
  t_invocation : int;
  t_agu : Trace.unit_trace;
  t_aus : Trace.unit_trace array;
  t_cu : Trace.unit_trace;
  t_timing : Timing.result;
}

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

exception Check_failed = Retime.Check_failed

let simulate ?(cfg = Config.default) ?(validate = true) ?w ?collect
    ?record_mem ?max_cycles ?partition arch f ~invocations ~mem =
  (* validate first: an invalid config fails before any functional work *)
  if validate then Config.validate cfg;
  Retime.plan ?partition arch f
  |> Retime.prepare ~invocations ~mem
  |> Retime.simulate ~validate:false ?w ?collect ?record_mem ?max_cycles ~cfg

let pp_stats ppf (r : result) =
  Stats.pp_table ~total_cycles:r.cycles ppf r.stats
