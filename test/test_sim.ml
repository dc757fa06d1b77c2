(* Every checked compile in this suite is also protocol-checked. *)
let () = Dae_analysis.Checker.install ()

(* Architecture simulator: FIFOs, functional co-simulation, LSQ behaviour,
   the timing engine's serialization mechanics, the STA model, the area
   model and the JSON emitter behind every machine-readable output. *)

open Dae_ir
open Dae_sim

let tc = Alcotest.test_case
let check = Alcotest.check

(* --- FIFO ------------------------------------------------------------------- *)

let test_fifo_latency_and_capacity () =
  let f = Timing.Fifo.create ~capacity:2 ~latency:3 in
  check Alcotest.bool "space" true (Timing.Fifo.has_space f);
  Timing.Fifo.push f ~now:0 7;
  Timing.Fifo.push f ~now:0 8;
  check Alcotest.bool "full" false (Timing.Fifo.has_space f);
  (match Timing.Fifo.push f ~now:1 9 with
  | exception Timing.Timing_error _ -> ()
  | () -> Alcotest.fail "push into full FIFO succeeded");
  check Alcotest.bool "not arrived at t=2" false (Timing.Fifo.ready f ~now:2);
  check Alcotest.bool "arrived at t=3" true (Timing.Fifo.ready f ~now:3);
  check Alcotest.int "pop order" 7 (Timing.Fifo.pop f);
  check Alcotest.int "pop order 2" 8 (Timing.Fifo.pop f);
  check Alcotest.bool "empty" true (Timing.Fifo.is_empty f)

(* --- functional co-simulation -------------------------------------------------- *)

let fig1_pipeline mode =
  Dae_core.Pipeline.compile ~check:true ~mode (Fixtures.fig1 ())

let test_exec_misspec_rate () =
  (* 3 of 8 values positive → 5 of 8 stores poisoned *)
  let p = fig1_pipeline Dae_core.Pipeline.Spec in
  let mem = Interp.Memory.create [ ("A", [| 1; -1; 2; -5; -2; 3; -9; 0 |]) ] in
  let r = Exec.run p ~args:[ ("n", Types.Vint 8) ] ~mem in
  check Alcotest.int "killed" 5 r.Exec.killed_stores;
  check Alcotest.int "committed" 3 r.Exec.committed_stores;
  check Alcotest.int "loads served" 8 r.Exec.loads_served;
  check (Alcotest.float 0.001) "rate" 0.625 (Exec.misspeculation_rate r)

let test_exec_traces_have_gates_only_when_synchronized () =
  let count_gates (tr : Trace.unit_trace) =
    let n = ref 0 in
    for k = 0 to Trace.length tr - 1 do
      if Trace.tag tr k = Trace.t_gate then incr n
    done;
    !n
  in
  let mem () = Interp.Memory.create [ ("A", Array.make 8 1) ] in
  let run mode =
    Exec.run (fig1_pipeline mode) ~args:[ ("n", Types.Vint 8) ] ~mem:(mem ())
  in
  let dae = run Dae_core.Pipeline.Dae in
  let spec = run Dae_core.Pipeline.Spec in
  check Alcotest.bool "DAE AGU gated" true (count_gates dae.Exec.agu_trace > 0);
  check Alcotest.int "SPEC AGU gate-free" 0 (count_gates spec.Exec.agu_trace);
  check Alcotest.bool "DAE AGU control-synchronized" true
    dae.Exec.agu_trace.Trace.control_synchronized;
  check Alcotest.bool "SPEC AGU free-running" false
    spec.Exec.agu_trace.Trace.control_synchronized

let test_exec_commit_order_matches_golden () =
  let p = fig1_pipeline Dae_core.Pipeline.Spec in
  let a0 = [| 5; -3; 2; 0; 7; -1 |] in
  let mem = Interp.Memory.create [ ("A", a0) ] in
  let golden_mem = Interp.Memory.create [ ("A", a0) ] in
  let golden =
    Interp.run p.Dae_core.Pipeline.original
      ~args:[ ("n", Types.Vint 6) ]
      ~mem:golden_mem
  in
  let r = Exec.run p ~args:[ ("n", Types.Vint 6) ] ~mem in
  match Exec.check_against_golden ~golden_mem ~golden r with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* --- timing: serialization mechanics ---------------------------------------- *)

let run_arch ?cfg arch (k : Dae_workloads.Kernels.t) =
  Machine.simulate ?cfg arch
    (k.Dae_workloads.Kernels.build ())
    ~invocations:(k.Dae_workloads.Kernels.invocations ())
    ~mem:(k.Dae_workloads.Kernels.init_mem ())

let test_dae_serializes_spec_streams () =
  let k = Dae_workloads.Kernels.hist ~n:400 ~buckets:16 ~cap:50 () in
  let dae = run_arch Machine.Dae k in
  let spec = run_arch Machine.Spec k in
  let sta = run_arch Machine.Sta k in
  (* DAE pays a round trip per iteration: much slower than STA; SPEC
     streams at II≈1: faster than STA *)
  check Alcotest.bool "DAE ≫ STA" true
    (dae.Machine.cycles > sta.Machine.cycles * 3 / 2);
  check Alcotest.bool "SPEC < STA" true
    (spec.Machine.cycles < sta.Machine.cycles);
  check Alcotest.bool "SPEC ≈ II 1" true
    (spec.Machine.cycles < 400 * 2)

let test_fifo_latency_increases_dae_round_trip () =
  let k = Dae_workloads.Kernels.thr ~n:200 () in
  let cycles latency =
    (run_arch ~cfg:{ Config.default with Config.fifo_latency = latency }
       Machine.Dae k)
      .Machine.cycles
  in
  check Alcotest.bool "longer FIFOs, longer DAE round trip" true
    (cycles 8 > cycles 1)

let test_spec_insensitive_to_fifo_latency () =
  let k = Dae_workloads.Kernels.thr ~n:200 () in
  let cycles latency =
    (run_arch ~cfg:{ Config.default with Config.fifo_latency = latency }
       Machine.Spec k)
      .Machine.cycles
  in
  (* runahead hides channel latency: only the pipeline fill grows *)
  check Alcotest.bool "SPEC hides FIFO latency" true
    (cycles 8 - cycles 1 < 100)

let test_store_queue_pressure () =
  (* §8.2.1: with a deep mis-speculating pipeline, a tiny store queue fills
     with doomed allocations and stalls the load stream *)
  let g = Dae_workloads.Graph.small ~nodes:32 ~edges:160 () in
  let k = Dae_workloads.Kernels.bfs ~graph:g () in
  let cycles sq =
    (run_arch ~cfg:{ Config.default with Config.store_queue_size = sq }
       Machine.Spec k)
      .Machine.cycles
  in
  check Alcotest.bool "SQ=1 slower than SQ=32" true (cycles 1 > cycles 32)

let test_oracle_filter_drops_kills () =
  let p = fig1_pipeline Dae_core.Pipeline.Spec in
  let mem = Interp.Memory.create [ ("A", [| 1; -1; 2; -5 |]) ] in
  let r = Exec.run p ~args:[ ("n", Types.Vint 4) ] ~mem in
  let agu', cu' = Timing.oracle_filter r.Exec.agu_trace r.Exec.cu_trace in
  let count sel (tr : Trace.unit_trace) =
    let n = ref 0 in
    for k = 0 to Trace.length tr - 1 do
      if sel (Trace.ev tr k) then incr n
    done;
    !n
  in
  check Alcotest.int "kills removed" 0
    (count (function Trace.Kill _ -> true | _ -> false) cu');
  check Alcotest.int "2 store sends remain (2 real stores)" 2
    (count (function Trace.Send_st _ -> true | _ -> false) agu');
  check Alcotest.int "produces kept" 2
    (count (function Trace.Produce _ -> true | _ -> false) cu')

(* --- STA model ----------------------------------------------------------------- *)

let test_sta_ii_hist () =
  let k = Dae_workloads.Kernels.hist () in
  let a = Sta.analyze (k.Dae_workloads.Kernels.build ()) in
  (* ld hist (lat 2) → cmp/add chain (1) → store: II = 4 with defaults *)
  check Alcotest.int "dependence II" 4 a.Sta.ii_dependence;
  check Alcotest.int "resource II" 1 a.Sta.ii_resource;
  check Alcotest.int "II" 4 a.Sta.ii

let test_sta_control_dependence_counted () =
  (* thr's store has no data dependence on the load — only control — and
     the II must still reflect the serialization *)
  let k = Dae_workloads.Kernels.thr () in
  let a = Sta.analyze (k.Dae_workloads.Kernels.build ()) in
  check Alcotest.bool "II > 1 via control chain" true (a.Sta.ii > 1)

let test_sta_no_dependence_means_ii_1 () =
  (* streaming copy without RAW hazard: b[i] = c[i] *)
  let b = Builder.create ~name:"copy" ~params:[ "n" ] in
  let (_ : Types.operand list) =
    Builder.counted_loop b ~n:(Builder.param b "n") (fun b ~i ~carried:_ ->
        let v = Builder.load b "c" i in
        Builder.store b "b" ~idx:i ~value:v;
        [])
  in
  let f = Builder.seal b in
  let a = Sta.analyze f in
  check Alcotest.int "II = 1" 1 a.Sta.ii

let test_sta_cycles_scale_with_iterations () =
  let cycles n =
    let k = Dae_workloads.Kernels.thr ~n () in
    (run_arch Machine.Sta k).Machine.cycles
  in
  let c100 = cycles 100 and c200 = cycles 200 in
  check Alcotest.bool "roughly linear" true
    (abs ((2 * c100) - c200) < c100)

(* --- area model ------------------------------------------------------------------ *)

let test_area_relationships () =
  let k = Dae_workloads.Kernels.hist ~n:100 ~buckets:8 ~cap:10 () in
  let sta = run_arch Machine.Sta k in
  let dae = run_arch Machine.Dae k in
  let spec = run_arch Machine.Spec k in
  let oracle = run_arch Machine.Oracle k in
  let total (r : Machine.result) = r.Machine.area.Area.total in
  check Alcotest.bool "STA smallest" true (total sta < total dae);
  check Alcotest.bool "SPEC ≥ DAE (poison logic)" true
    (total spec >= total dae - 500);
  check Alcotest.bool "ORACLE ≤ SPEC" true (total oracle <= total spec);
  check Alcotest.bool "decoupled breakdown populated" true
    (spec.Machine.area.Area.agu > 0
    && spec.Machine.area.Area.cu > 0
    && spec.Machine.area.Area.du > 0)

let test_area_grows_with_lsq_size () =
  let k = Dae_workloads.Kernels.hist ~n:50 ~buckets:8 ~cap:10 () in
  let area sq =
    (run_arch ~cfg:{ Config.default with Config.store_queue_size = sq }
       Machine.Spec k)
      .Machine.area.Area.total
  in
  check Alcotest.bool "bigger SQ, bigger DU" true (area 64 > area 8)

(* --- JSON emitter ------------------------------------------------------------- *)

let test_json_escape () =
  check Alcotest.string "quote, backslash, newline, tab, control byte"
    {|a\"b\\c\nd\te\u0001f|}
    (Json.escape "a\"b\\c\nd\te\001f");
  check Alcotest.string "plain text untouched" "hist/SPEC@lq4"
    (Json.escape "hist/SPEC@lq4")

let test_json_nested () =
  let doc =
    Json.Obj
      [
        ("kernel", Json.Str "a\"b");
        ("units", Json.List [ Json.Obj [ ("Busy", Json.Int 3) ]; Json.Null ]);
        ("ok", Json.Bool true);
      ]
  in
  check Alcotest.string "compact nested rendering"
    {|{"kernel":"a\"b","units":[{"Busy":3},null],"ok":true}|}
    (Fmt.str "%a" Json.pp doc)

let () =
  Alcotest.run "sim"
    [
      ("fifo", [ tc "latency and capacity" `Quick test_fifo_latency_and_capacity ]);
      ( "exec",
        [
          tc "misspec rate" `Quick test_exec_misspec_rate;
          tc "gates only when synchronized" `Quick
            test_exec_traces_have_gates_only_when_synchronized;
          tc "commit order matches golden" `Quick
            test_exec_commit_order_matches_golden;
        ] );
      ( "timing",
        [
          tc "DAE serializes, SPEC streams" `Quick
            test_dae_serializes_spec_streams;
          tc "FIFO latency hurts DAE" `Quick
            test_fifo_latency_increases_dae_round_trip;
          tc "FIFO latency hidden by SPEC" `Quick
            test_spec_insensitive_to_fifo_latency;
          tc "store-queue pressure (§8.2.1)" `Quick test_store_queue_pressure;
          tc "oracle filter" `Quick test_oracle_filter_drops_kills;
        ] );
      ( "sta",
        [
          tc "hist II" `Quick test_sta_ii_hist;
          tc "control-dependence II" `Quick test_sta_control_dependence_counted;
          tc "no hazard → II 1" `Quick test_sta_no_dependence_means_ii_1;
          tc "linear in iterations" `Quick test_sta_cycles_scale_with_iterations;
        ] );
      ( "area",
        [
          tc "relationships" `Quick test_area_relationships;
          tc "LSQ size" `Quick test_area_grows_with_lsq_size;
        ] );
      ( "json",
        [
          tc "escape" `Quick test_json_escape;
          tc "nested Obj/List" `Quick test_json_nested;
        ] );
    ]
