(* The incremental event-wheel scheduler, held to bit-identical
   equivalence with the seed's rescan-everything calendar it replaced:
   for every kernel of the test suite (also over its natural N-way
   partition), the paper suite's hist kernel at the default cache
   hierarchy, and randomized generator CFGs, across all four
   architectures and a spread of configurations — scratchpad, capacity
   floors, two memory-hierarchy points (the default cache and a starved
   1-bank/2-MSHR geometry over a slow DRAM), vector widths 2 and 4, and
   invalid capacity-0 boundary probes run with validation off — each
   (kernel, arch) is prepared once and that one prepare is replayed
   through [Retime.simulate ~scheduler:Event_wheel] and
   [~scheduler:Seed_calendar], which must agree on cycle counts, complete
   stall partitions, kill/commit counters and deadlock verdicts (message
   included) exactly. *)

open Dae_workloads
module M = Dae_sim.Machine
module R = Dae_sim.Retime
module Cfg = Dae_sim.Config
module Stats = Dae_sim.Stats
module Timing = Dae_sim.Timing
module E = Dae_sim.Exec
module G = Gen

let tc = Alcotest.test_case
let check = Alcotest.check
let archs = [ M.Sta; M.Dae; M.Spec; M.Oracle ]

let starved_geom =
  {
    Cfg.default_geom with
    Cfg.banks = 1;
    ways = 1;
    mshrs = 2;
    dram =
      {
        Cfg.dram_banks = 2;
        row_words = 128;
        t_row_hit = 30;
        t_row_miss = 80;
        t_bus = 8;
      };
  }

(* default; capacity floors; the two hierarchy points; vector widths 2
   and 4 (the second under the hierarchy); two invalid capacity-0
   boundary probes (one of them under the cache hierarchy, pushing the
   deadlock path through the wheel's bank/MSHR buckets) *)
let cfgs =
  [
    Cfg.default;
    {
      Cfg.default with
      Cfg.request_fifo_capacity = 1;
      value_fifo_capacity = 1;
      store_value_fifo_capacity = 1;
      load_queue_size = 1;
      store_queue_size = 2;
    };
    { Cfg.default with Cfg.hierarchy = Cfg.Hierarchy Cfg.default_geom };
    { Cfg.default with Cfg.hierarchy = Cfg.Hierarchy starved_geom };
    { Cfg.default with Cfg.vector_width = 2 };
    {
      Cfg.default with
      Cfg.hierarchy = Cfg.Hierarchy Cfg.default_geom;
      vector_width = 4;
    };
    { Cfg.default with Cfg.request_fifo_capacity = 0 };
    {
      Cfg.default with
      Cfg.hierarchy = Cfg.Hierarchy Cfg.default_geom;
      value_fifo_capacity = 0;
      store_queue_size = 2;
    };
  ]

let export_stats keyed =
  List.map
    (fun (unit, t) ->
      ( unit,
        List.map (fun c -> (Stats.cause_name c, Stats.get t c)) Stats.all_causes
      ))
    keyed

type verdict =
  | Done of int * (string * (string * int) list) list * int * int
  | Dead of string  (** deadlock, message included: verdicts must agree *)

let verdict ~scheduler prepared cfg =
  match R.simulate ~cfg ~validate:false ~scheduler prepared with
  | r ->
    Done
      ( r.M.cycles,
        export_stats r.M.stats,
        r.M.killed_stores,
        r.M.committed_stores )
  | exception Timing.Deadlock msg -> Dead msg

let pp_verdict ppf = function
  | Done (c, _, k, m) -> Fmt.pf ppf "done(%d cyc, %d killed, %d committed)" c k m
  | Dead msg -> Fmt.pf ppf "deadlock(%s)" msg

let verdict_t = Alcotest.testable pp_verdict ( = )

(* One prepare — one compiled replay per invocation — of [kernel] per
   arch, plus DAE over the kernel's natural N-way partition when
   [nway], replayed under both schedulers at every configuration of
   [cfgs], calendar first and again after the wheel: the replay carries
   nothing from one run into the next. *)
let check_kernel ?(nway = false) ~cfgs (k : Kernels.t) =
  let partition () =
    (Dae_analysis.Partition.analyze (k.Kernels.build ()))
      .Dae_analysis.Partition.assignment
  in
  List.iter
    (fun (name, plan) ->
      let prepared =
        R.prepare plan ~invocations:(k.Kernels.invocations ())
          ~mem:(k.Kernels.init_mem ())
      in
      List.iter
        (fun cfg ->
          let label = Fmt.str "%s/%s@%s" k.Kernels.name name (Cfg.key cfg) in
          let calendar = verdict ~scheduler:Timing.Seed_calendar prepared cfg in
          check verdict_t label calendar
            (verdict ~scheduler:Timing.Event_wheel prepared cfg);
          check verdict_t (label ^ " again") calendar
            (verdict ~scheduler:Timing.Seed_calendar prepared cfg))
        cfgs)
    (List.map
       (fun arch -> (M.arch_name arch, R.plan arch (k.Kernels.build ())))
       archs
    @
    if nway then
      [
        ( "DAE#nway",
          R.plan ~partition:(partition ()) M.Dae (k.Kernels.build ()) );
      ]
    else [])

(* --- test-suite kernels: every arch, every config, both schedulers ------- *)

let test_kernel name () =
  match Kernels.by_name (Kernels.test_suite ()) name with
  | Some k -> check_kernel ~nway:true ~cfgs k
  | None -> Alcotest.failf "kernel %s not in test suite" name

(* --- paper-suite hist under the default cache hierarchy ------------------ *)

let test_paper_hist () =
  match Kernels.by_name (Kernels.paper_suite ()) "hist" with
  | Some k ->
    check_kernel
      ~cfgs:[ { Cfg.default with Cfg.hierarchy = Cfg.Hierarchy Cfg.default_geom } ]
      k
  | None -> Alcotest.fail "hist not in the paper suite"

(* --- qcheck: the same statement over randomized generator CFGs ----------- *)

let gen_wheel_equiv (g : G.t) =
  List.for_all
    (fun arch ->
      match R.plan arch (Dae_ir.Func.clone g.G.func) with
      | exception Dae_core.Pipeline.Compile_error _ -> true
      | plan -> (
        match R.prepare plan ~invocations:[ g.G.args ] ~mem:(g.G.mem ()) with
        | exception
            ( E.Deadlock _ | E.Stream_mismatch _ | E.Desync _
            | R.Check_failed _ ) ->
          true (* the functional half refuses the program: nothing to time *)
        | prepared ->
          List.for_all
            (fun cfg ->
              verdict ~scheduler:Timing.Seed_calendar prepared cfg
              = verdict ~scheduler:Timing.Event_wheel prepared cfg)
            cfgs))
    archs

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"wheel == seed calendar, randomized CFGs" ~count:40
      small_nat (fun seed -> gen_wheel_equiv (Fixtures.gen_cfg ~seed));
    Test.make ~name:"same, stores on several arrays and inner loops" ~count:20
      small_nat (fun seed -> gen_wheel_equiv (Fixtures.gen_cfg_multi ~seed ()));
  ]

let () =
  let kernel_cases =
    List.map
      (fun (k : Kernels.t) ->
        tc k.Kernels.name `Quick (test_kernel k.Kernels.name))
      (Kernels.test_suite ())
  in
  Alcotest.run "wheel"
    [
      ("test-suite kernels", kernel_cases);
      ( "paper suite",
        [ tc "hist, default cache hierarchy" `Quick test_paper_hist ] );
      ("randomized CFGs", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
