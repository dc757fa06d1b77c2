(* Trace-driven re-timing, the one simulation path: a prepared kernel is
   a pure function of the configuration it is replayed under. For every
   kernel of the test suite and for randomized generator CFGs, across all
   four architectures and a spread of configurations (including invalid
   capacity-0 boundary probes run with validation off), one prepare
   replayed under every configuration in forward order and again in
   reverse order must give identical verdicts — cycle counts, complete
   stall partitions, kill/commit counters and deadlocks — so no state
   leaks from one replay into the next; and every completed verdict's
   per-unit stall partition must sum to its cycles. Absolute cycle counts
   are pinned independently by the recorded seed-engine table in
   test/test_timing_equiv.ml. Plus the on-disk result cache: a warm sweep
   serves identical points without a single functional execution, and a
   corrupted entry is detected, discarded and recomputed — never
   trusted. *)

open Dae_workloads
module M = Dae_sim.Machine
module R = Dae_sim.Retime
module C = Dae_sim.Cache
module Cfg = Dae_sim.Config
module Stats = Dae_sim.Stats
module Timing = Dae_sim.Timing
module E = Dae_sim.Exec
module Sweep = Dae_dse.Sweep
module G = Gen

let tc = Alcotest.test_case
let check = Alcotest.check
let archs = [ M.Sta; M.Dae; M.Spec; M.Oracle ]

(* default; every capacity at its floor; an invalid boundary probe *)
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
    { Cfg.default with Cfg.request_fifo_capacity = 0 };
    { Cfg.default with Cfg.value_fifo_capacity = 0; store_queue_size = 2 };
  ]

type verdict =
  | Done of int * Stats.keyed * int * int
  | Dead

let verdict prepared cfg =
  match R.simulate ~validate:false ~cfg prepared with
  | r ->
    Done (r.M.cycles, r.M.stats, r.M.killed_stores, r.M.committed_stores)
  | exception Timing.Deadlock _ -> Dead

let same a b =
  match (a, b) with
  | Dead, Dead -> true
  | Done (c, s, k, m), Done (c', s', k', m') ->
    c = c' && Stats.equal_keyed s s' && k = k' && m = m'
  | _ -> false

let partitions_sum = function
  | Dead -> true
  | Done (cycles, stats, _, _) ->
    List.for_all (fun (_, t) -> Stats.total t = cycles) stats

(* Replay [prepared] under [cfgs] forward, then in reverse; [None] when
   every pair agrees and every completed partition sums, otherwise the
   offending configuration key. *)
let replay_defect prepared =
  let replay order = List.map (verdict prepared) order in
  let forward = replay cfgs in
  let backward = List.rev (replay (List.rev cfgs)) in
  List.find_map
    (fun (cfg, (a, b)) ->
      if not (same a b) then Some (Cfg.key cfg ^ ": replay order matters")
      else if not (partitions_sum a) then
        Some (Cfg.key cfg ^ ": stall partition does not sum to cycles")
      else None)
    (List.combine cfgs (List.combine forward backward))

(* --- test-suite kernels: every arch, one prepare, every config twice ------ *)

let test_kernel name () =
  let k =
    match Kernels.by_name (Kernels.test_suite ()) name with
    | Some k -> k
    | None -> Alcotest.failf "kernel %s not in test suite" name
  in
  List.iter
    (fun arch ->
      let plan = R.plan arch (k.Kernels.build ()) in
      let prepared =
        R.prepare plan ~invocations:(k.Kernels.invocations ())
          ~mem:(k.Kernels.init_mem ())
      in
      check
        Alcotest.(option string)
        (Fmt.str "%s/%s" name (M.arch_name arch))
        None (replay_defect prepared))
    archs

(* --- qcheck: the same statement over randomized generator CFGs ----------- *)

let gen_replay_independent (g : G.t) =
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
        | prepared -> replay_defect prepared = None))
    archs

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"replays are order-independent, randomized CFGs"
      ~count:60 small_nat (fun seed ->
        gen_replay_independent (Fixtures.gen_cfg ~seed));
    Test.make ~name:"same, stores on several arrays and inner loops" ~count:30
      small_nat (fun seed ->
        gen_replay_independent (Fixtures.gen_cfg_multi ~seed ()));
  ]

(* --- cache round-trip ------------------------------------------------------ *)

let with_cache_dir = Fixtures.with_cache_dir

let cache_roundtrip () =
  with_cache_dir (fun dir ->
      let cache = C.create ~dir () in
      let k = C.key [ "alpha"; "beta" ] in
      check Alcotest.bool "miss before store" true (C.find cache k = None);
      C.store cache k (42, "payload", [ 1; 2; 3 ]);
      check
        (Alcotest.option
           (Alcotest.triple Alcotest.int Alcotest.string
              (Alcotest.list Alcotest.int)))
        "hit after store"
        (Some (42, "payload", [ 1; 2; 3 ]))
        (C.find cache k);
      (* component boundaries must matter *)
      check Alcotest.bool "length-prefixed key components" true
        (C.key [ "ab"; "c" ] <> C.key [ "a"; "bc" ]))

let strip p = { p with Sweep.pt_cached = false }

let sweep_points dir =
  let cache = C.create ~dir () in
  let wl =
    match Kernels.by_name (Kernels.test_suite ()) "hist" with
    | Some k -> Sweep.workload_of_kernel ~suite:"quick" k
    | None -> Alcotest.fail "hist not in test suite"
  in
  let r =
    Sweep.run ~cache ~axes:Sweep.quick_axes ~archs:[ M.Dae; M.Spec ] [ wl ]
  in
  (List.map strip r.Sweep.points, r.Sweep.summary)

let cache_cold_warm () =
  with_cache_dir (fun dir ->
      let cold, cold_s = sweep_points dir in
      check Alcotest.bool "cold pass misses" true
        (cold_s.Sweep.sm_cache.C.misses > 0
        && cold_s.Sweep.sm_cache.C.hits = 0);
      check Alcotest.bool "cold pass executes" true
        (cold_s.Sweep.sm_prepares > 0);
      let warm, warm_s = sweep_points dir in
      check Alcotest.bool "cold == warm points" true (cold = warm);
      check Alcotest.int "warm pass never executes" 0 warm_s.Sweep.sm_prepares;
      check (Alcotest.float 1e-9) "warm pass all hits" 1.0
        warm_s.Sweep.sm_hit_rate;
      check Alcotest.int "no cross-check failures" 0
        (List.length cold_s.Sweep.sm_check_failures
        + List.length warm_s.Sweep.sm_check_failures))

let cache_corruption () =
  with_cache_dir (fun dir ->
      let cold, _ = sweep_points dir in
      (* flip the last byte of every entry's payload *)
      let corrupted = ref 0 in
      Array.iter
        (fun shard ->
          let sdir = Filename.concat dir shard in
          if Sys.is_directory sdir then
            Array.iter
              (fun file ->
                let path = Filename.concat sdir file in
                let ic = open_in_bin path in
                let raw = really_input_string ic (in_channel_length ic) in
                close_in ic;
                let b = Bytes.of_string raw in
                let last = Bytes.length b - 1 in
                Bytes.set b last
                  (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
                let oc = open_out_bin path in
                output_bytes oc b;
                close_out oc;
                incr corrupted)
              (Sys.readdir sdir))
        (Sys.readdir dir);
      check Alcotest.bool "entries were corrupted" true (!corrupted > 0);
      let again, s = sweep_points dir in
      check Alcotest.bool "corruption detected, never trusted" true
        (s.Sweep.sm_cache.C.corrupt = !corrupted);
      check Alcotest.bool "every point recomputed" true
        (s.Sweep.sm_cache.C.hits = 0 && s.Sweep.sm_prepares > 0);
      check Alcotest.bool "recomputed results identical" true (cold = again))

let entry_files dir =
  Array.fold_left
    (fun acc shard ->
      let sdir = Filename.concat dir shard in
      if Sys.is_directory sdir then
        Array.fold_left
          (fun acc f -> Filename.concat sdir f :: acc)
          acc (Sys.readdir sdir)
      else acc)
    [] (Sys.readdir dir)

(* a crashed writer can leave a zero-length or header-truncated entry;
   both must read as a miss, be counted corrupt, be deleted, and leave
   the slot storable again *)
let cache_damaged_entries () =
  with_cache_dir (fun dir ->
      let cache = C.create ~dir () in
      let k_zero = C.key [ "zero-length" ] in
      let k_trunc = C.key [ "truncated-header" ] in
      C.store cache k_zero "payload-zero";
      C.store cache k_trunc "payload-truncated";
      let path_of k =
        match
          List.find_opt
            (fun f -> Filename.basename f = k ^ ".entry")
            (entry_files dir)
        with
        | Some p -> p
        | None -> Alcotest.failf "no entry file for %s" k
      in
      let pz = path_of k_zero and pt = path_of k_trunc in
      close_out (open_out_bin pz);
      let raw =
        let ic = open_in_bin pt in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      (* cut inside the one-line header, before its newline *)
      let oc = open_out_bin pt in
      output_string oc (String.sub raw 0 5);
      close_out oc;
      check Alcotest.bool "zero-length entry misses" true
        ((C.find cache k_zero : string option) = None);
      check Alcotest.bool "truncated entry misses" true
        ((C.find cache k_trunc : string option) = None);
      check Alcotest.int "both counted corrupt" 2 (C.counters cache).C.corrupt;
      check Alcotest.bool "damaged entries deleted" true
        (not (Sys.file_exists pz) && not (Sys.file_exists pt));
      C.store cache k_zero "payload-zero";
      check
        (Alcotest.option Alcotest.string)
        "slot recovers after re-store" (Some "payload-zero")
        (C.find cache k_zero))

(* two runner domains hammering the same key: temp-file + rename means a
   reader only ever observes whole entries — some valid payload, never a
   torn one, never a spurious miss *)
let cache_concurrent_writers () =
  with_cache_dir (fun dir ->
      let k = C.key [ "contended" ] in
      let rounds = 200 in
      let results =
        Dae_sim.Runner.map_list ~domains:2
          ~f:(fun id ->
            let cache = C.create ~dir () in
            let bad = ref 0 in
            for i = 1 to rounds do
              C.store cache k (id, i);
              match (C.find cache k : (int * int) option) with
              | Some (w, j) when (w = 0 || w = 1) && j >= 1 && j <= rounds ->
                ()
              | Some _ | None -> incr bad
            done;
            (!bad, (C.counters cache).C.corrupt))
          [ 0; 1 ]
      in
      List.iter
        (fun (bad, corrupt) ->
          check Alcotest.int "every read is a whole valid entry" 0 bad;
          check Alcotest.int "no torn entries observed" 0 corrupt)
        results)

(* --- the evaluator: Sweep.job / eval / validate_sizing ---------------------- *)

let quick_hist () =
  match Kernels.by_name (Kernels.test_suite ()) "hist" with
  | Some k -> k
  | None -> Alcotest.fail "hist not in test suite"

let hist_workload () = Sweep.workload_of_kernel ~suite:"quick" (quick_hist ())

(* STA, DAE, SPEC, ORACLE and DAE over hist's natural N-way partition *)
let eval_plans () =
  let partition =
    (Dae_analysis.Partition.analyze ((quick_hist ()).Kernels.build ()))
      .Dae_analysis.Partition.assignment
  in
  check Alcotest.bool "hist partitions into more than one access unit" true
    (partition.Dae_core.Decouple.n_access > 1);
  List.map (fun arch -> (M.arch_name arch, arch, None)) archs
  @ [ ("DAE#partitioned", M.Dae, Some partition) ]

let point_fields (p : Sweep.point) =
  ( (match p.Sweep.pt_status with Sweep.Cycles c -> c | Sweep.Deadlock -> -1),
    p.Sweep.pt_killed,
    p.Sweep.pt_committed,
    p.Sweep.pt_stats )

let fields =
  Alcotest.(
    testable
      (fun ppf (c, k, m, _) -> Fmt.pf ppf "cycles %d killed %d committed %d" c k m)
      ( = ))

(* cold eval, warm eval on a fresh job (no prepare) and a fresh
   Machine.simulate agree on everything *)
let eval_cold_warm_fresh () =
  with_cache_dir (fun dir ->
      let w = hist_workload () in
      List.iter
        (fun (label, arch, partition) ->
          let plan = R.plan ?partition arch w.Sweep.w_func in
          let cold_job = Sweep.job ~cache:(C.create ~dir ()) w plan in
          let cold = Sweep.eval cold_job Cfg.default in
          check Alcotest.bool (label ^ ": cold point computed") false
            cold.Sweep.pt_cached;
          check Alcotest.int (label ^ ": cold job prepared once") 1
            (Sweep.job_prepares cold_job);
          let warm_job = Sweep.job ~cache:(C.create ~dir ()) w plan in
          let warm = Sweep.eval warm_job Cfg.default in
          check Alcotest.bool (label ^ ": warm point cached") true
            warm.Sweep.pt_cached;
          check Alcotest.int (label ^ ": warm job never prepares") 0
            (Sweep.job_prepares warm_job);
          let k = quick_hist () in
          let r =
            M.simulate ~cfg:Cfg.default ?partition arch (k.Kernels.build ())
              ~invocations:(k.Kernels.invocations ())
              ~mem:(k.Kernels.init_mem ())
          in
          let fresh =
            ( r.M.cycles,
              r.M.killed_stores,
              r.M.committed_stores,
              List.map
                (fun (u, t) ->
                  ( u,
                    List.map
                      (fun c -> (Stats.cause_name c, Stats.get t c))
                      Stats.all_causes ))
                r.M.stats )
          in
          check fields (label ^ ": cold == fresh") fresh (point_fields cold);
          check fields (label ^ ": warm == fresh") fresh (point_fields warm))
        (eval_plans ()))

let eval_deadlock () =
  with_cache_dir (fun dir ->
      let w = hist_workload () in
      let plan = R.plan M.Dae w.Sweep.w_func in
      let cfg = { Cfg.default with Cfg.request_fifo_capacity = 0 } in
      let status job = (Sweep.eval job cfg).Sweep.pt_status in
      check Alcotest.bool "capacity 0 deadlocks cold" true
        (status (Sweep.job ~cache:(C.create ~dir ()) w plan) = Sweep.Deadlock);
      let warm = Sweep.job ~cache:(C.create ~dir ()) w plan in
      check Alcotest.bool "and warm, from the cache" true
        (status warm = Sweep.Deadlock && Sweep.job_prepares warm = 0))

let eval_reference_check () =
  with_cache_dir (fun dir ->
      let w =
        { (hist_workload ()) with Sweep.w_check = (fun _ -> Error "wrong") }
      in
      let cache = C.create ~dir () in
      let job = Sweep.job ~cache w (R.plan M.Spec w.Sweep.w_func) in
      (match Sweep.eval job Cfg.default with
      | _ -> Alcotest.fail "a rejected functional run produced a point"
      | exception R.Check_failed msg ->
        check Alcotest.bool "message names kernel and arch" true
          (String.starts_with ~prefix:"hist/SPEC" msg));
      check Alcotest.int "nothing stored" 0 (C.disk_stats cache).C.entries)

(* Same IR, hence the same plan digest, over two memory images: the
   instance id keeps their points apart. *)
let eval_instances_distinct () =
  with_cache_dir (fun dir ->
      let mk suite k = Sweep.workload_of_kernel ~suite k in
      let a = mk "a" (Kernels.hist ~n:60 ~buckets:8 ~cap:12 ~seed:1 ())
      and b = mk "b" (Kernels.hist ~n:60 ~buckets:8 ~cap:12 ~seed:2 ()) in
      let plan w = R.plan M.Spec w.Sweep.w_func in
      check Alcotest.string "same plan digest"
        (R.plan_digest (plan a)) (R.plan_digest (plan b));
      let eval w =
        Sweep.eval (Sweep.job ~cache:(C.create ~dir ()) w (plan w)) Cfg.default
      in
      let pa = eval a and pb = eval b in
      check Alcotest.bool "second instance is not served the first's point"
        false pb.Sweep.pt_cached;
      check Alcotest.bool "the two instances' points differ" true
        (point_fields pa <> point_fields pb);
      check fields "each instance's warm point is its own" (point_fields pb)
        (point_fields (eval b)))

let () =
  let kernel_cases =
    List.map
      (fun (k : Kernels.t) ->
        tc k.Kernels.name `Quick (test_kernel k.Kernels.name))
      (Kernels.test_suite ())
  in
  Alcotest.run "retime"
    [
      ("test-suite kernels", kernel_cases);
      ( "randomized CFGs",
        List.map QCheck_alcotest.to_alcotest qcheck_props );
      ( "result cache",
        [
          tc "store/find round-trip" `Quick cache_roundtrip;
          tc "cold sweep == warm sweep" `Quick cache_cold_warm;
          tc "corrupted entries recomputed" `Quick cache_corruption;
          tc "zero-length and truncated entries" `Quick cache_damaged_entries;
          tc "concurrent writers, one key" `Quick cache_concurrent_writers;
        ] );
      ( "evaluator",
        [
          tc "cold, warm and fresh agree" `Quick eval_cold_warm_fresh;
          tc "capacity 0 deadlocks cold and warm" `Quick eval_deadlock;
          tc "reference check failure stores nothing" `Quick
            eval_reference_check;
          tc "instances sharing a plan digest stay apart" `Quick
            eval_instances_distinct;
        ] );
    ]
