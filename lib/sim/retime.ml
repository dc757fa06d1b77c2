(* Trace-driven re-timing (see retime.mli) — the one simulation path.

   The seam this module exploits is structural: Exec.run_lowered takes no
   Config.t, and Timing.oracle_filter is likewise config-independent, so
   everything up to and including the recorded traces is identical across
   every point of a configuration sweep. [prepare] does that half once;
   [simulate] is then Timing.run_units per stored invocation plus the
   (cheap, config-dependent) area model. Machine.simulate is
   plan |> prepare |> simulate, so a single-configuration run and a sweep
   point share every line of functional and timing code. *)

open Dae_ir

type arch = Sta | Dae | Spec | Oracle

let arch_name = function
  | Sta -> "STA"
  | Dae -> "DAE"
  | Spec -> "SPEC"
  | Oracle -> "ORACLE"

type invocation = (string * Types.value) list (* kernel arguments *)

type timeline = {
  t_invocation : int;
  t_agu : Trace.unit_trace;
  t_aus : Trace.unit_trace array; (* extra access units; [||] for 2-way *)
  t_cu : Trace.unit_trace;
  t_timing : Timing.result;
}

type result = {
  arch : arch;
  cycles : int;
  invocations : int;
  killed_stores : int;
  committed_stores : int;
  misspec_rate : float;
  area : Area.breakdown;
  memory : Interp.Memory.t; (* final memory, for workload-level checks *)
  pipeline : Dae_core.Pipeline.t option;
  stats : Stats.keyed; (* cycle attribution, merged over invocations *)
  timelines : timeline list; (* per invocation; only with ~collect:true *)
  mem_events : Timing.mem_event array list;
      (* per invocation, in order; only with ~record_mem:true *)
}

exception Check_failed of string

type decoupled_plan = {
  p_pipeline : Dae_core.Pipeline.t;
  p_lowered : Lower.t;
  p_subscribers : (int * Trace.unit_id list) list;
}

type plan = {
  pl_arch : arch;
  pl_func : Func.t;
  pl_digest : string;
  pl_dec : decoupled_plan option; (* None for STA *)
}

let plan ?(partition = Dae_core.Decouple.trivial) (arch : arch)
    (f : Func.t) : plan =
  match arch with
  | Sta ->
    (* the printed IR is the canonical byte form of a function *)
    let digest =
      Digest.to_hex (Digest.string (Fmt.str "%a" Printer.pp_func f))
    in
    {
      pl_arch = arch;
      pl_func = f;
      pl_digest = "STA:" ^ digest;
      pl_dec = None;
    }
  | Dae | Spec | Oracle ->
    let mode =
      match arch with
      | Dae -> Dae_core.Pipeline.Dae
      | _ -> Dae_core.Pipeline.Spec
    in
    let p = Dae_core.Pipeline.compile ~mode ~partition f in
    (* the partition is baked into the lowered unit programs, so
       Lower.digest below already distinguishes N-way plans *)
    let lowered = Lower.compile p in
    let subscribers =
      List.map
        (fun (m, subs) ->
          ( m,
            List.map
              (function
                | `Agu -> Trace.Agu
                | `Cu -> Trace.Cu
                | `Au k -> Trace.Au k)
              subs ))
        p.Dae_core.Pipeline.load_subscribers
    in
    {
      pl_arch = arch;
      pl_func = f;
      (* SPEC and ORACLE share a lowering (mode Spec); the arch prefix
         keeps their identities distinct — ORACLE filters its traces *)
      pl_digest = arch_name arch ^ ":" ^ Digest.to_hex (Lower.digest lowered);
      pl_dec =
        Some { p_pipeline = p; p_lowered = lowered; p_subscribers = subscribers };
    }

let plan_digest p = p.pl_digest
let arch p = p.pl_arch

let pipeline p =
  match p.pl_dec with None -> None | Some d -> Some d.p_pipeline

type prepared = {
  pr_plan : plan;
  pr_invocations : int;
  pr_traces : Trace.unit_trace array array;
      (* per invocation, dense unit order [agu; cu; au1; ...], post
         oracle-filter; [||] for STA *)
  pr_golden_runs : Interp.result array;
      (* STA only: cycles are cfg-dependent (port pressure bounds the II),
         so the golden runs are stored and re-derived per configuration *)
  pr_killed : int;
  pr_committed : int;
  pr_memory : Interp.Memory.t; (* final memory after all invocations *)
}

let prepare (plan : plan) ~(invocations : invocation list)
    ~(mem : Interp.Memory.t) : prepared =
  match plan.pl_dec with
  | None ->
    (* STA: the functional half is the sequence of golden runs; cycles
       are re-derived per configuration from their iteration counts *)
    let mem = Interp.Memory.copy mem in
    let goldens =
      Array.of_list
        (List.map (fun args -> Interp.run plan.pl_func ~args ~mem) invocations)
    in
    {
      pr_plan = plan;
      pr_invocations = List.length invocations;
      pr_traces = [||];
      pr_golden_runs = goldens;
      pr_killed = 0;
      pr_committed = 0;
      pr_memory = mem;
    }
  | Some dec ->
    let p = dec.p_pipeline in
    let sim_mem = Interp.Memory.copy mem in
    let golden_mem = Interp.Memory.copy mem in
    let killed = ref 0 and committed = ref 0 in
    let traces =
      Array.of_list
        (List.map
           (fun args ->
             let golden =
               Interp.run p.Dae_core.Pipeline.original ~args ~mem:golden_mem
             in
             let r = Exec.run_lowered dec.p_lowered ~args ~mem:sim_mem in
             (match Exec.check_against_golden ~golden_mem ~golden r with
             | Ok () -> ()
             | Error msg ->
               raise
                 (Check_failed
                    (Fmt.str "%s/%s: %s" plan.pl_func.Func.name
                       (arch_name plan.pl_arch)
                       msg)));
             killed := !killed + r.Exec.killed_stores;
             committed := !committed + r.Exec.committed_stores;
             match plan.pl_arch with
             | Oracle ->
               let agu_tr, cu_tr =
                 Timing.oracle_filter r.Exec.agu_trace r.Exec.cu_trace
               in
               [| agu_tr; cu_tr |]
             | _ -> Exec.traces r)
           invocations)
    in
    {
      pr_plan = plan;
      pr_invocations = Array.length traces;
      pr_traces = traces;
      pr_golden_runs = [||];
      pr_killed = !killed;
      pr_committed = !committed;
      pr_memory = sim_mem;
    }

let final_memory (pr : prepared) = pr.pr_memory

let trace_digest (pr : prepared) =
  match pr.pr_plan.pl_dec with
  | None ->
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (Array.to_list
               (Array.map
                  (fun (g : Interp.result) -> string_of_int g.Interp.steps)
                  pr.pr_golden_runs))))
  | Some _ ->
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (Array.to_list
               (Array.map
                  (fun trs ->
                    String.concat ""
                      (Array.to_list (Array.map Trace.digest trs)))
                  pr.pr_traces))))

let area ?(w = Area.default_weights) (plan : plan) ~(cfg : Config.t) =
  match plan.pl_dec with
  | None -> Area.sta ~w plan.pl_func
  | Some dec ->
    (* ORACLE's filtered traces need no poison logic *)
    Area.decoupled ~w ~cfg ~ignore_poison:(plan.pl_arch = Oracle)
      dec.p_pipeline

let simulate ?(validate = true) ?w
    ?(collect = false) ?(record_mem = false) ?max_cycles ?scheduler
    ~(cfg : Config.t) (pr : prepared) : result =
  if validate then Config.validate cfg;
  let plan = pr.pr_plan in
  match plan.pl_dec with
  | None ->
    let cycles =
      Array.fold_left
        (fun acc golden ->
          acc + (Sta.cycles_of_run ~cfg plan.pl_func golden).Sta.cycles)
        0 pr.pr_golden_runs
    in
    {
      arch = plan.pl_arch;
      cycles;
      invocations = pr.pr_invocations;
      killed_stores = 0;
      committed_stores = 0;
      misspec_rate = 0.0;
      area = area ?w plan ~cfg;
      memory = pr.pr_memory;
      pipeline = None;
      (* the single statically-scheduled unit is never idle: modulo
         scheduling fills every cycle, so the whole run is Busy *)
      stats = [ ("STA", Stats.of_busy cycles) ];
      timelines = [];
      mem_events = [];
    }
  | Some dec ->
    let cycles = ref 0 in
    let stats = ref [] in
    let timelines = ref [] in
    let mem_events = ref [] in
    Array.iteri
      (fun i trs ->
        let timed =
          Timing.run_units ~cfg ~validate:false ?max_cycles
            ~record_depths:collect ~record_mem ?scheduler
            ~subscribers:dec.p_subscribers trs
        in
        cycles := !cycles + timed.Timing.cycles;
        stats := Stats.merge_keyed !stats timed.Timing.stats;
        if record_mem then
          mem_events := timed.Timing.mem_events :: !mem_events;
        if collect then
          timelines :=
            {
              t_invocation = i;
              t_agu = trs.(0);
              t_aus = Array.sub trs 2 (Array.length trs - 2);
              t_cu = trs.(1);
              t_timing = timed;
            }
            :: !timelines)
      pr.pr_traces;
    let total = pr.pr_killed + pr.pr_committed in
    {
      arch = plan.pl_arch;
      cycles = !cycles;
      invocations = pr.pr_invocations;
      killed_stores = pr.pr_killed;
      committed_stores = pr.pr_committed;
      misspec_rate =
        (if total = 0 then 0.0
         else float_of_int pr.pr_killed /. float_of_int total);
      area = area ?w plan ~cfg;
      memory = pr.pr_memory;
      pipeline = Some dec.p_pipeline;
      stats = !stats;
      timelines = List.rev !timelines;
      mem_events = List.rev !mem_events;
    }
