(* The static channel-sizing analyzer, held to its acceptance contract:
   for every kernel of the reduced test suite in both decoupled modes it
   must (a) prove the default configuration deadlock-free and name a
   critical channel, (b) emit per-channel minimum depths at which the
   simulator really does complete — within the analyzer's predicted cycle
   bound and with the stall partition intact — and (c) place the deadlock
   boundary exactly: one step below the critical channel's minimum the
   simulator either trips its dynamic deadlock detector (capacity 0,
   which Config.validate would reject up front) or runs no faster than at
   the minimum. The same soundness statement is a qcheck property over
   the §6 randomized kernel generator. *)

open Dae_workloads
module G = Gen
module M = Dae_sim.Machine
module S = Dae_sim.Stats
module P = Dae_core.Pipeline
module Sz = Dae_analysis.Sizing
module Ch = Dae_analysis.Channel

let tc = Alcotest.test_case
let check = Alcotest.check
let modes = [ ("dae", P.Dae, M.Dae); ("spec", P.Spec, M.Spec) ]

let sim ?(validate = true) ?(collect = false) ~cfg arch (k : Kernels.t) =
  M.simulate ~cfg ~validate ~collect arch
    (k.Kernels.build ())
    ~invocations:(k.Kernels.invocations ())
    ~mem:(k.Kernels.init_mem ())

(* --- per-kernel: analyze, rerun at the minimum, probe the boundary ----------- *)

let test_kernel name () =
  let k =
    match Kernels.by_name (Kernels.test_suite ()) name with
    | Some k -> k
    | None -> Alcotest.failf "kernel %s not in test suite" name
  in
  List.iter
    (fun (mname, mode, arch) ->
      let label what = Printf.sprintf "%s/%s %s" name mname what in
      let p = P.compile ~mode (k.Kernels.build ()) in
      match Sz.analyze ~cfg:Dae_sim.Config.default p with
      | Error _ -> Alcotest.failf "%s: segment budget exceeded" (label "analyze")
      | Ok sz ->
        (* the default config is proven deadlock-free, channels are sized *)
        check Alcotest.bool (label "deadlock-free at defaults") false
          (Sz.deadlocks sz);
        check Alcotest.bool (label "has channels") true (sz.Sz.channels <> []);
        check Alcotest.bool (label "names a critical channel") true
          (sz.Sz.critical <> None);
        List.iter
          (fun (s : Sz.sized) ->
            let n = Ch.name s.Sz.sz_chan.Ch.kind in
            check Alcotest.bool (label (n ^ " min >= 1")) true (s.Sz.sz_min >= 1);
            check Alcotest.bool
              (label (n ^ " matched >= min"))
              true
              (s.Sz.sz_matched >= s.Sz.sz_min))
          sz.Sz.channels;
        (* the simulator completes at the minimum depths, inside the bound,
           with the correct result and an exact stall partition *)
        let r = sim ~collect:true ~cfg:sz.Sz.min_cfg arch k in
        (match k.Kernels.check r.M.memory with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s: %s" (label "reference check") msg);
        let bound = Sz.bound_of_timelines sz r.M.timelines in
        check Alcotest.bool
          (label (Printf.sprintf "cycles %d within bound %d" r.M.cycles bound))
          true (r.M.cycles <= bound);
        List.iter
          (fun (u, c) ->
            check Alcotest.int (label (u ^ " partitions")) r.M.cycles
              (S.total c))
          r.M.stats;
        (* one below the critical channel's minimum is the boundary *)
        (match Sz.critical_decrement sz with
        | None -> Alcotest.failf "%s: no critical channel" (label "probe")
        | Some (kind, probe_cfg) ->
          let cname = Ch.name kind in
          if Ch.capacity probe_cfg kind = 0 then begin
            (* validation rejects the config... *)
            (match Dae_sim.Config.validate probe_cfg with
            | () ->
              Alcotest.failf "%s: capacity 0 passed Config.validate"
                (label cname)
            | exception Invalid_argument _ -> ());
            (* ...the analyzer proves the deadlock statically... *)
            (match Sz.analyze ~cfg:probe_cfg p with
            | Ok sz' ->
              check Alcotest.bool
                (label (cname ^ " static deadlock at min-1"))
                true (Sz.deadlocks sz')
            | Error _ ->
              Alcotest.failf "%s: segment budget exceeded" (label "reanalyze"));
            (* ...and the engine's dynamic detector agrees *)
            match sim ~validate:false ~cfg:probe_cfg arch k with
            | (_ : M.result) ->
              Alcotest.failf "%s: expected a dynamic deadlock at min-1"
                (label cname)
            | exception Dae_sim.Timing.Deadlock _ -> ()
          end
          else
            (* still feasible: strictly fewer slots can only stall harder *)
            match sim ~validate:false ~cfg:probe_cfg arch k with
            | r' ->
              check Alcotest.bool
                (label (cname ^ " min-1 is no faster"))
                true
                (r'.M.cycles >= r.M.cycles)
            | exception Dae_sim.Timing.Deadlock _ -> ()))
    modes

(* --- Config.validate: the satellite contract --------------------------------- *)

let test_config_validate () =
  let d = Dae_sim.Config.default in
  Dae_sim.Config.validate d;
  let bad =
    [
      ("load_queue_size", { d with Dae_sim.Config.load_queue_size = 0 });
      ("store_queue_size", { d with Dae_sim.Config.store_queue_size = -1 });
      ( "request_fifo_capacity",
        { d with Dae_sim.Config.request_fifo_capacity = 0 } );
      ("value_fifo_capacity", { d with Dae_sim.Config.value_fifo_capacity = 0 });
      ( "store_value_fifo_capacity",
        { d with Dae_sim.Config.store_value_fifo_capacity = -3 } );
      ("fifo_latency", { d with Dae_sim.Config.fifo_latency = 0 });
      ("memory_load_latency", { d with Dae_sim.Config.memory_load_latency = 0 });
      ( "memory_store_latency",
        { d with Dae_sim.Config.memory_store_latency = 0 } );
      ("forward_latency", { d with Dae_sim.Config.forward_latency = 0 });
      ("alu_latency", { d with Dae_sim.Config.alu_latency = 0 });
      ("branch_latency", { d with Dae_sim.Config.branch_latency = -2 });
      ("unit_ii", { d with Dae_sim.Config.unit_ii = 0 });
      ("vector_width", { d with Dae_sim.Config.vector_width = 0 });
    ]
  in
  List.iter
    (fun (what, cfg) ->
      match Dae_sim.Config.validate cfg with
      | () -> Alcotest.failf "%s: expected Invalid_argument" what
      | exception Invalid_argument msg ->
        let contains s sub =
          let n = String.length sub and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        check Alcotest.bool
          (Printf.sprintf "%s named in %S" what msg)
          true (contains msg what))
    bad

let test_entry_points_validate () =
  let k =
    match Kernels.by_name (Kernels.test_suite ()) "thr" with
    | Some k -> k
    | None -> Alcotest.fail "thr not in test suite"
  in
  let cfg = { Dae_sim.Config.default with Dae_sim.Config.fifo_latency = 0 } in
  (match sim ~cfg M.Spec k with
  | (_ : M.result) -> Alcotest.fail "Machine.simulate accepted fifo_latency 0"
  | exception Invalid_argument _ -> ());
  let tr u = Dae_sim.Trace.empty u in
  match
    Dae_sim.Timing.run ~cfg
      (Dae_sim.Timing.compile ~subscribers:[]
         [| tr Dae_sim.Trace.Agu; tr Dae_sim.Trace.Cu |])
  with
  | (_ : Dae_sim.Timing.result) ->
    Alcotest.fail "Timing.run accepted fifo_latency 0"
  | exception Invalid_argument _ -> ()

(* --- qcheck: the same soundness statement on randomized kernels --------------- *)

let gen_sizing_sound (g : G.t) =
  List.for_all
    (fun (_, mode, arch) ->
      match P.compile ~mode (Dae_ir.Func.clone g.G.func) with
      | exception P.Compile_error _ -> true
      | p -> (
        match Sz.analyze ~cfg:Dae_sim.Config.default p with
        | Error _ -> true (* analyzer declines past its segment budget *)
        | Ok sz ->
          let simulate ?(validate = true) cfg =
            M.simulate ~cfg ~validate ~collect:true arch g.G.func
              ~invocations:[ g.G.args ] ~mem:(g.G.mem ())
          in
          (not (Sz.deadlocks sz))
          && (sz.Sz.channels = [] || sz.Sz.critical <> None)
          &&
          let r = simulate sz.Sz.min_cfg in
          r.M.cycles <= Sz.bound_of_timelines sz r.M.timelines
          &&
          (match Sz.critical_decrement sz with
          | None -> sz.Sz.channels = []
          | Some (kind, probe_cfg) ->
            if Ch.capacity probe_cfg kind = 0 then
              match simulate ~validate:false probe_cfg with
              | (_ : M.result) -> false (* min-1 must not complete *)
              | exception Dae_sim.Timing.Deadlock _ -> true
            else
              (* a tighter-but-legal critical channel never speeds us up *)
              match simulate ~validate:false probe_cfg with
              | r' -> r'.M.cycles >= r.M.cycles
              | exception Dae_sim.Timing.Deadlock _ -> true)))
    modes

let qcheck_props =
  let open QCheck in
  let gen_seed = small_nat in
  [
    Test.make ~name:"analyzer minimums are safe, min-1 is the boundary"
      ~count:40 gen_seed
      (fun seed -> gen_sizing_sound (Fixtures.gen_cfg ~seed));
    Test.make ~name:"same, with stores on several arrays" ~count:15 gen_seed
      (fun seed ->
        gen_sizing_sound (Fixtures.gen_cfg_multi ~inner_loops:false ~seed ()));
  ]

let () =
  Alcotest.run "sizing"
    [
      ( "config validate",
        [
          tc "rejects non-positive knobs by name" `Quick test_config_validate;
          tc "enforced at the Machine/Timing entry points" `Quick
            test_entry_points_validate;
        ] );
      ( "test-suite kernels",
        List.map
          (fun (k : Kernels.t) ->
            tc k.Kernels.name `Quick (test_kernel k.Kernels.name))
          (Kernels.test_suite ()) );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
