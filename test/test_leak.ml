(* Speculative-leakage analyzer: static taint verdicts on the
   killed-store gadget and its non-speculative twin, dynamic
   interference-witness confirmation through the re-timing engine
   (scratchpad and cache hierarchy points), and the soundness property
   over randomized generator CFGs — a static "clean" verdict must imply
   no interference witness exists, i.e. every dynamic divergence the
   search finds is statically taint-flagged. *)

open Dae_workloads
module M = Dae_sim.Machine
module R = Dae_sim.Retime
module Cfg = Dae_sim.Config
module E = Dae_sim.Exec
module P = Dae_core.Pipeline
module Taint = Dae_analysis.Taint
module Leak = Dae_analysis.Leak

let tc = Alcotest.test_case
let check = Alcotest.check

(* a deliberately small, contention-prone hierarchy point: one
   direct-mapped bank with 2 MSHRs over the default DRAM *)
let cache_small =
  {
    Cfg.default with
    Cfg.hierarchy =
      Cfg.Hierarchy
        { Cfg.default_geom with Cfg.banks = 1; sets = 8; ways = 1; mshrs = 2 };
  }

let points = [ ("scratchpad", Cfg.default); ("cache", cache_small) ]

let taint_of mode f = Taint.analyze (P.compile ~mode ~check:true f)

(* --- the killed-store gadget and its twin (taint × poison kills) ---------- *)

let gadget_flagged () =
  let t = taint_of P.Spec (Fixtures.leak_gadget ()) in
  check Alcotest.bool "hoisted load sources present" true
    (t.Taint.sources <> []);
  check Alcotest.bool "killed store's secret-dependent address flagged" true
    (List.exists
       (fun (s : Taint.site) ->
         s.Taint.s_kind = Taint.Store_addr && s.Taint.s_speculative)
       t.Taint.sites)

let twin_clean () =
  let t = taint_of P.Spec (Fixtures.leak_gadget_twin ()) in
  check Alcotest.bool "twin has no speculative sources" true
    (t.Taint.sources = []);
  check Alcotest.bool "twin is clean" true (Taint.clean t)

let gadget_dae_clean () =
  let t = taint_of P.Dae (Fixtures.leak_gadget ()) in
  check Alcotest.bool "dae mode hoists nothing" true (t.Taint.sources = []);
  check Alcotest.bool "dae mode is clean" true (Taint.clean t)

let gadget_witness () =
  let r =
    Leak.search ~points M.Spec (Fixtures.leak_gadget ())
      ~invocations:[ Fixtures.leak_gadget_args ]
      ~mem:(Fixtures.leak_gadget_mem ())
  in
  check Alcotest.bool "architecturally dead cells exist" true
    (r.Leak.l_candidates > 0);
  check Alcotest.bool "interference witness found" true (Leak.found r);
  (* the witness the search found is statically taint-flagged *)
  let t = taint_of P.Spec (Fixtures.leak_gadget ()) in
  check Alcotest.bool "witness implies taint sites" true
    (not (Taint.clean t))

let twin_no_witness () =
  let r =
    Leak.search ~points M.Spec (Fixtures.leak_gadget_twin ())
      ~invocations:[ Fixtures.leak_gadget_args ]
      ~mem:(Fixtures.leak_gadget_mem ())
  in
  check Alcotest.int "twin reads only architectural cells" 0
    r.Leak.l_candidates;
  check Alcotest.bool "twin yields no witness" true (not (Leak.found r))

let gadget_dae_no_witness () =
  let r =
    Leak.search ~points M.Dae (Fixtures.leak_gadget ())
      ~invocations:[ Fixtures.leak_gadget_args ]
      ~mem:(Fixtures.leak_gadget_mem ())
  in
  check Alcotest.int "dae reads only architectural cells" 0
    r.Leak.l_candidates;
  check Alcotest.bool "dae yields no witness" true (not (Leak.found r))

(* --- kernel suite ---------------------------------------------------------- *)

let suite_dae_clean () =
  List.iter
    (fun (k : Kernels.t) ->
      let t = taint_of P.Dae (k.Kernels.build ()) in
      check Alcotest.bool
        (Fmt.str "%s dae-mode clean" k.Kernels.name)
        true (Taint.clean t))
    (Kernels.test_suite ())

let spmv_speculative_load_addr () =
  let k =
    match Kernels.by_name (Kernels.test_suite ()) "spmv" with
    | Some k -> k
    | None -> Alcotest.fail "spmv not in test suite"
  in
  let t = taint_of P.Spec (k.Kernels.build ()) in
  check Alcotest.bool
    "spmv: speculative load address depends on a speculative load" true
    (List.exists
       (fun (s : Taint.site) ->
         s.Taint.s_kind = Taint.Load_addr && s.Taint.s_speculative)
       t.Taint.sites)

let spmv_witness_under_cache () =
  let k =
    match Kernels.by_name (Kernels.test_suite ()) "spmv" with
    | Some k -> k
    | None -> Alcotest.fail "spmv not in test suite"
  in
  let r =
    Leak.search ~points M.Spec (k.Kernels.build ())
      ~invocations:(k.Kernels.invocations ())
      ~mem:(k.Kernels.init_mem ())
  in
  check Alcotest.bool "spmv: witness found" true (Leak.found r);
  check Alcotest.bool "spmv: some divergence is a timing divergence" true
    (List.exists (fun w -> w.Leak.w_divs <> []) r.Leak.l_witnesses)

(* --- qcheck soundness over randomized CFGs -------------------------------- *)

(* Every dynamic divergence must be statically taint-flagged; a clean
   verdict forbids witnesses. Dae additionally performs no speculative
   reads at all, so its candidate set is empty by construction. *)
let gen_sound (g : Gen.t) =
  List.for_all
    (fun (mode, arch) ->
      match P.compile ~mode (Dae_ir.Func.clone g.Gen.func) with
      | exception P.Compile_error _ -> true
      | p -> (
        let t = Taint.analyze p in
        match
          Leak.search ~budget:3 ~masks:[ 1 ] ~points arch
            (Dae_ir.Func.clone g.Gen.func)
            ~invocations:[ g.Gen.args ] ~mem:(g.Gen.mem ())
        with
        | exception
            ( R.Check_failed _ | E.Deadlock _ | E.Stream_mismatch _
            | E.Desync _ ) ->
          true (* the program itself is rejected either way *)
        | r ->
          let sound = (not (Leak.found r)) || not (Taint.clean t) in
          let dae_empty =
            arch <> M.Dae || (r.Leak.l_candidates = 0 && not (Leak.found r))
          in
          sound && dae_empty))
    [ (P.Dae, M.Dae); (P.Spec, M.Spec) ]

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"clean verdict forbids witnesses, randomized CFGs"
      ~count:15 small_nat
      (fun seed -> gen_sound (Fixtures.gen_cfg ~seed));
    Test.make ~name:"same, multi-array stores and inner loops" ~count:8
      small_nat
      (fun seed -> gen_sound (Fixtures.gen_cfg_multi ~seed ()));
  ]

let () =
  Alcotest.run "leak"
    [
      ( "killed-store gadget",
        [
          tc "secret-dependent killed-store address flagged" `Quick
            gadget_flagged;
          tc "non-speculative twin is clean" `Quick twin_clean;
          tc "dae mode is clean" `Quick gadget_dae_clean;
          tc "gadget yields an interference witness" `Quick gadget_witness;
          tc "twin yields no witness" `Quick twin_no_witness;
          tc "dae arch yields no witness" `Quick gadget_dae_no_witness;
        ] );
      ( "kernel suite",
        [
          tc "every kernel is clean in dae mode" `Quick suite_dae_clean;
          tc "spmv speculative load-address site" `Quick
            spmv_speculative_load_addr;
          tc "spmv witness under the cache hierarchy" `Quick
            spmv_witness_under_cache;
        ] );
      ("soundness", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
