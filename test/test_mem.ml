(* Differential memory-model harness (the hierarchy PR's headline test).

   Three statements, each checked over the kernel test suite and over
   randomized generator CFGs × hierarchy configurations:

   (a) Scratchpad mode is bit-identical to the pre-hierarchy engine:
       cycles, stall partitions and kill/commit counters are unchanged by
       the hierarchy plumbing, recording the memory event log does not
       perturb timing, and the hierarchy-only stall causes stay zero.

   (b) The committed order is sequentially consistent under variable
       latency: every event log the engine records replays cleanly
       against the operational LSQ model in Mem_model (store lifecycle
       and program-order exits, forwarding observers, memory loads seeing
       exactly the program-order prefix of committed stores). WAR timing
       reorders are out of the model's scope — the memory is age-ordered,
       see mem_model.mli.

   (c) A shared prepare replays like a fresh one with the hierarchy
       enabled: one Retime.prepare re-timed across every hierarchy config
       reproduces the cycles, full partitions and event logs of a fresh
       Machine.simulate (its own plan + prepare) at each config —
       cache/DRAM state is per-run, so no replay leaks into the next.

   Every simulated point runs under a cycle budget: a hang becomes a
   failure naming the kernel × config point instead of wedging
   `dune runtest`. *)

open Dae_workloads
module M = Dae_sim.Machine
module R = Dae_sim.Retime
module Cfg = Dae_sim.Config
module Stats = Dae_sim.Stats
module Timing = Dae_sim.Timing
module Model = Dae_sim.Mem_model
module E = Dae_sim.Exec
module G = Gen

let tc = Alcotest.test_case
let check = Alcotest.check

(* Generous for kernels this size, small enough to fail fast on a hang. *)
let cycle_budget = 2_000_000

(* Two contrasted hierarchy points (the acceptance floor), plus a
   pathological third for the randomized sweep: a direct-mapped 2-set
   cache with a single MSHR and one DRAM bank maximizes MSHR backpressure,
   conflict misses and bank serialization. *)
let geom_tight =
  {
    Cfg.banks = 1;
    sets = 2;
    ways = 1;
    line_words = 2;
    hit_latency = 1;
    mshrs = 1;
    dram =
      {
        Cfg.dram_banks = 1;
        row_words = 4;
        t_row_hit = 6;
        t_row_miss = 15;
        t_bus = 2;
      };
  }

let geom_baseline = Cfg.default_geom

let geom_wide =
  {
    Cfg.banks = 4;
    sets = 32;
    ways = 4;
    line_words = 8;
    hit_latency = 2;
    mshrs = 8;
    dram =
      {
        Cfg.dram_banks = 8;
        row_words = 512;
        t_row_hit = 12;
        t_row_miss = 30;
        t_bus = 2;
      };
  }

let hier_cfgs =
  [
    { Cfg.default with Cfg.hierarchy = Cfg.Hierarchy geom_baseline };
    { Cfg.default with Cfg.hierarchy = Cfg.Hierarchy geom_tight };
    { Cfg.default with Cfg.hierarchy = Cfg.Hierarchy geom_wide };
    (* floor channel capacities × a contended hierarchy: the widest gap
       between issue admissibility and buffer space *)
    {
      Cfg.default with
      Cfg.hierarchy = Cfg.Hierarchy geom_tight;
      request_fifo_capacity = 1;
      value_fifo_capacity = 1;
      store_value_fifo_capacity = 1;
      load_queue_size = 2;
      store_queue_size = 2;
    };
  ]

let archs = [ M.Sta; M.Dae; M.Spec; M.Oracle ]
let dec_archs = [ M.Dae; M.Spec; M.Oracle ]

let point_label ?(kernel = "?") arch cfg =
  Fmt.str "%s/%s@%s" kernel (M.arch_name arch) (Cfg.key cfg)

let simulate ?record_mem ~label arch func ~invocations ~mem cfg =
  match
    M.simulate ~cfg ?record_mem ~max_cycles:cycle_budget arch func ~invocations
      ~mem
  with
  | r -> r
  | exception Timing.Timing_error msg ->
    Alcotest.failf "cycle budget blown at %s: %s" label msg

(* --- (a) scratchpad bit-equivalence --------------------------------------- *)

(* The hierarchy plumbing must be invisible in Scratchpad mode. The
   absolute numbers are pinned elsewhere (bench_quick.expected,
   test_stats's golden trace digest); here we pin the invariants the
   plumbing could break: observability off == observability on, and the
   hierarchy-only causes never fire. *)
let scratchpad_invisible (k : Kernels.t) () =
  let invocations = k.Kernels.invocations () in
  List.iter
    (fun arch ->
      let label = point_label ~kernel:k.Kernels.name arch Cfg.default in
      let plain =
        simulate ~label arch (k.Kernels.build ()) ~invocations
          ~mem:(k.Kernels.init_mem ()) Cfg.default
      in
      let recorded =
        simulate ~record_mem:true ~label arch (k.Kernels.build ())
          ~invocations ~mem:(k.Kernels.init_mem ()) Cfg.default
      in
      check Alcotest.int (label ^ " cycles unperturbed by record_mem")
        plain.M.cycles recorded.M.cycles;
      check Alcotest.bool (label ^ " stats unperturbed by record_mem") true
        (Stats.equal_keyed plain.M.stats recorded.M.stats);
      List.iter
        (fun (unit, t) ->
          check Alcotest.int
            (Fmt.str "%s %s: no mshr_full in scratchpad" label unit)
            0
            (Stats.get t Stats.Mshr_full);
          check Alcotest.int
            (Fmt.str "%s %s: no dram_bank in scratchpad" label unit)
            0
            (Stats.get t Stats.Dram_bank))
        plain.M.stats;
      (* the SC oracle must admit the scratchpad logs too *)
      match Model.check_run recorded.M.mem_events with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "%s: scratchpad SC violation: %a" label
          Model.pp_violation v)
    archs

(* --- (b) + (c): hierarchy points ------------------------------------------- *)

let partition_exact ~label (r : M.result) =
  List.iter
    (fun (unit, t) ->
      check Alcotest.int
        (Fmt.str "%s %s: causes partition cycles" label unit)
        r.M.cycles (Stats.total t))
    r.M.stats

let sc_clean ~label (r : M.result) =
  match Model.check_run r.M.mem_events with
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: %d SC violation(s), first: %a" label (List.length vs)
      Model.pp_violation (List.hd vs)

let export_stats keyed =
  List.map
    (fun (unit, t) ->
      ( unit,
        List.map (fun c -> (Stats.cause_name c, Stats.get t c)) Stats.all_causes
      ))
    keyed

let hierarchy_kernel (k : Kernels.t) () =
  let invocations = k.Kernels.invocations () in
  List.iter
    (fun arch ->
      let plan = R.plan arch (k.Kernels.build ()) in
      let prepared =
        R.prepare plan ~invocations ~mem:(k.Kernels.init_mem ())
      in
      List.iter
        (fun cfg ->
          let label = point_label ~kernel:k.Kernels.name arch cfg in
          let fused =
            simulate ~record_mem:true ~label arch (k.Kernels.build ())
              ~invocations ~mem:(k.Kernels.init_mem ()) cfg
          in
          partition_exact ~label fused;
          sc_clean ~label fused;
          let retimed =
            match
              R.simulate ~record_mem:true ~max_cycles:cycle_budget ~cfg
                prepared
            with
            | r -> r
            | exception Timing.Timing_error msg ->
              Alcotest.failf "cycle budget blown re-timing %s: %s" label msg
          in
          check Alcotest.int (label ^ " retime == machine cycles")
            fused.M.cycles retimed.M.cycles;
          check Alcotest.bool (label ^ " retime == machine stats") true
            (Stats.equal_keyed fused.M.stats retimed.M.stats);
          check Alcotest.bool (label ^ " retime == machine event logs") true
            (fused.M.mem_events = retimed.M.mem_events);
          sc_clean ~label:(label ^ " (retimed)") retimed)
        hier_cfgs)
    (if k.Kernels.name = "mm" then archs else dec_archs)

(* The hierarchy must actually bite: under the tight geometry at least one
   kernel × arch point records misses (Mshr_full or Dram_bank cycles) —
   otherwise the whole harness is vacuously green. *)
let hierarchy_bites () =
  let hit = ref false in
  List.iter
    (fun (k : Kernels.t) ->
      let invocations = k.Kernels.invocations () in
      List.iter
        (fun arch ->
          let cfg =
            { Cfg.default with Cfg.hierarchy = Cfg.Hierarchy geom_tight }
          in
          let label = point_label ~kernel:k.Kernels.name arch cfg in
          let r =
            simulate ~label arch (k.Kernels.build ()) ~invocations
              ~mem:(k.Kernels.init_mem ()) cfg
          in
          List.iter
            (fun (_, t) ->
              if
                Stats.get t Stats.Mshr_full > 0
                || Stats.get t Stats.Dram_bank > 0
              then hit := true)
            r.M.stats)
        dec_archs)
    (Kernels.test_suite ());
  check Alcotest.bool
    "tight hierarchy produces mshr_full/dram_bank stalls somewhere" true !hit

(* --- qcheck: randomized kernels × hierarchy configs ------------------------ *)

(* Every generated point replays the event log against the operational
   model and re-times it; with 3 configs × (25 + 15) seeds this sweeps
   ≥ 100 kernel × hierarchy points (the acceptance floor is 50). *)
let qcheck_cfgs = List.filteri (fun i _ -> i < 3) hier_cfgs

let gen_point_ok (g : G.t) =
  List.for_all
    (fun arch ->
      let invocations = [ g.G.args ] in
      match R.plan arch (Dae_ir.Func.clone g.G.func) with
      | exception Dae_core.Pipeline.Compile_error _ -> true
      | plan -> (
        match R.prepare plan ~invocations ~mem:(g.G.mem ()) with
        | exception
            ( E.Deadlock _ | E.Stream_mismatch _ | E.Desync _
            | R.Check_failed _ ) ->
          true (* the functional half refuses the program: nothing to time *)
        | prepared ->
          List.for_all
            (fun cfg ->
              let label = point_label ~kernel:"gen" arch cfg in
              let fused =
                match
                  M.simulate ~cfg ~record_mem:true ~max_cycles:cycle_budget
                    arch g.G.func ~invocations ~mem:(g.G.mem ())
                with
                | r -> r
                | exception Timing.Timing_error msg ->
                  QCheck.Test.fail_reportf
                    "cycle budget blown at seed %d, %s: %s" g.G.seed label msg
              in
              (match Model.check_run fused.M.mem_events with
              | [] -> ()
              | v :: _ ->
                QCheck.Test.fail_reportf "SC violation at seed %d, %s: %a"
                  g.G.seed label Model.pp_violation v);
              List.iter
                (fun (unit, t) ->
                  if Stats.total t <> fused.M.cycles then
                    QCheck.Test.fail_reportf
                      "partition broken at seed %d, %s, unit %s: %d <> %d"
                      g.G.seed label unit (Stats.total t) fused.M.cycles)
                fused.M.stats;
              let retimed =
                match
                  R.simulate ~record_mem:true ~max_cycles:cycle_budget ~cfg
                    prepared
                with
                | r -> r
                | exception Timing.Timing_error msg ->
                  QCheck.Test.fail_reportf
                    "cycle budget blown re-timing seed %d, %s: %s" g.G.seed
                    label msg
              in
              if
                fused.M.cycles <> retimed.M.cycles
                || (not (Stats.equal_keyed fused.M.stats retimed.M.stats))
                || fused.M.mem_events <> retimed.M.mem_events
              then
                QCheck.Test.fail_reportf
                  "retime <> machine at seed %d, %s: %d vs %d cycles (stats \
                   %s)"
                  g.G.seed label fused.M.cycles retimed.M.cycles
                  (if export_stats fused.M.stats = export_stats retimed.M.stats
                   then "equal"
                   else "differ");
              true)
            qcheck_cfgs))
    dec_archs

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"SC oracle + retime equiv, randomized kernels" ~count:25
      small_nat
      (fun seed -> gen_point_ok (Fixtures.gen_cfg ~seed));
    Test.make ~name:"same, multi-array stores and inner loops" ~count:15
      small_nat
      (fun seed -> gen_point_ok (Fixtures.gen_cfg_multi ~seed ()));
  ]

let () =
  let suite = Kernels.test_suite () in
  Alcotest.run "mem"
    [
      ( "scratchpad bit-equivalence",
        List.map
          (fun (k : Kernels.t) ->
            tc k.Kernels.name `Quick (scratchpad_invisible k))
          suite );
      ( "hierarchy: SC + retime equivalence",
        tc "stalls observed" `Quick hierarchy_bites
        :: List.map
             (fun (k : Kernels.t) ->
               tc k.Kernels.name `Quick (hierarchy_kernel k))
             suite );
      ( "randomized kernels × hierarchy",
        List.map QCheck_alcotest.to_alcotest qcheck_props );
    ]
