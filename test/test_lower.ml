(* The micro-op lowering, held to bit-identical equivalence with the
   pre-lowering tree-walking co-simulator it replaced (Exec_reference):
   for randomized kernels from the §6 generator, in both decoupled modes,
   the lowered fast path must produce the same final memory, the same
   per-array commit sequence, the same compact channel traces event for
   event (Trace.equal covers tags, interned array ids, mem ids, iteration
   and depth indices, payloads, and the control-synchronization flag), and
   the same store kill/commit counters — so every downstream consumer
   (timing replay, stall attribution, trace export, sizing) is untouched
   by the lowering. *)

open Dae_workloads
module G = Gen
module P = Dae_core.Pipeline
module E = Dae_sim.Exec
module Tr = Dae_sim.Trace

let tc = Alcotest.test_case
let check = Alcotest.check
let modes = [ ("dae", P.Dae); ("spec", P.Spec) ]

let same_run label (a : E.result) (b : E.result) =
  check Alcotest.bool (label ^ ": final memory") true
    (Dae_ir.Interp.Memory.equal a.E.memory b.E.memory);
  check Alcotest.bool (label ^ ": AGU trace") true
    (Tr.equal a.E.agu_trace b.E.agu_trace);
  check Alcotest.bool (label ^ ": CU trace") true
    (Tr.equal a.E.cu_trace b.E.cu_trace);
  check
    (Alcotest.list
       (Alcotest.triple Alcotest.string Alcotest.int Alcotest.int))
    (label ^ ": commit order")
    (List.map (fun c -> (c.E.c_arr, c.E.c_addr, c.E.c_value)) a.E.commits)
    (List.map (fun c -> (c.E.c_arr, c.E.c_addr, c.E.c_value)) b.E.commits);
  check Alcotest.int (label ^ ": killed stores") a.E.killed_stores
    b.E.killed_stores;
  check Alcotest.int (label ^ ": committed stores") a.E.committed_stores
    b.E.committed_stores;
  check Alcotest.int (label ^ ": loads served") a.E.loads_served
    b.E.loads_served

(* --- the paper suite, both modes, full invocation sequences --------------- *)

let test_kernel name () =
  let k =
    match Kernels.by_name (Kernels.test_suite ()) name with
    | Some k -> k
    | None -> Alcotest.failf "kernel %s not in test suite" name
  in
  List.iter
    (fun (mname, mode) ->
      let p = P.compile ~mode (k.Kernels.build ()) in
      let lowered = Dae_sim.Lower.compile p in
      let mem_fast = k.Kernels.init_mem () in
      let mem_ref = k.Kernels.init_mem () in
      List.iter
        (fun args ->
          let fast = E.run_lowered lowered ~args ~mem:mem_fast in
          let reference = Exec_reference.run p ~args ~mem:mem_ref in
          same_run (Printf.sprintf "%s/%s" name mname) fast reference)
        (k.Kernels.invocations ()))
    modes

(* --- qcheck: the same statement over the randomized generator ------------- *)

let gen_lowering_equiv (g : G.t) =
  List.for_all
    (fun (_, mode) ->
      match P.compile ~mode (Dae_ir.Func.clone g.G.func) with
      | exception P.Compile_error _ -> true
      | p -> (
        let run f =
          let mem = g.G.mem () in
          let r = f ~args:g.G.args ~mem in
          (r, mem)
        in
        match run (E.run_lowered (Dae_sim.Lower.compile p)) with
        | exception (E.Deadlock _ | E.Stream_mismatch _ | E.Desync _) ->
          (* then the reference path must refuse it the same way *)
          (match run (Exec_reference.run p) with
          | (_ : E.result * Dae_ir.Interp.Memory.t) -> false
          | exception (E.Deadlock _ | E.Stream_mismatch _ | E.Desync _) ->
            true)
        | fast, fast_mem -> (
          match run (Exec_reference.run p) with
          | exception (E.Deadlock _ | E.Stream_mismatch _ | E.Desync _) ->
            false
          | reference, ref_mem ->
            Dae_ir.Interp.Memory.equal fast_mem ref_mem
            && Tr.equal fast.E.agu_trace reference.E.agu_trace
            && Tr.equal fast.E.cu_trace reference.E.cu_trace
            && List.map
                 (fun c -> (c.E.c_arr, c.E.c_addr, c.E.c_value))
                 fast.E.commits
               = List.map
                   (fun c -> (c.E.c_arr, c.E.c_addr, c.E.c_value))
                   reference.E.commits
            && fast.E.killed_stores = reference.E.killed_stores
            && fast.E.committed_stores = reference.E.committed_stores
            && fast.E.loads_served = reference.E.loads_served)))
    modes

let qcheck_props =
  let open QCheck in
  let gen_seed = small_nat in
  [
    Test.make ~name:"lowered fast path == tree-walking reference" ~count:120
      gen_seed
      (fun seed -> gen_lowering_equiv (G.generate ~seed ()));
    Test.make ~name:"same, with stores on several arrays and inner loops"
      ~count:40 gen_seed
      (fun seed ->
        gen_lowering_equiv
          (G.generate ~seed ~stored:2 ~max_stmts:14 ~inner_loops:true ()));
  ]

let () =
  Alcotest.run "lower"
    [
      ( "test-suite kernels",
        List.map
          (fun (k : Kernels.t) ->
            tc k.Kernels.name `Quick (test_kernel k.Kernels.name))
          (Kernels.test_suite ()) );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
