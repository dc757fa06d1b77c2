(* daec — the command-line driver.

     daec list                                  # benchmark kernels
     daec analyze --kernel bfs                  # LoD report (§4)
     daec analyze file.ir
     daec compile --kernel hist --mode spec     # print AGU/CU slices
     daec compile file.ir --mode dae
     daec run --kernel hist --arch spec         # simulate + verify
     daec run --kernel bfs --all --sq 8         # all four architectures
     daec run --kernel thr --req-fifo 2 --val-fifo 2 --stv-fifo 2
     daec stats --kernel bfs --arch dae --arch spec   # stall attribution
     daec stats --kernel bfs --json             # machine-readable stats
     daec trace --kernel thr --out thr.json     # Perfetto timeline JSON
     daec check --kernel bfs --mode both        # soundness checker
     daec check --all-kernels                   # gate the whole suite
     daec leak --kernel spmv --witness          # speculative-leakage report
     daec leak --suite quick --arch dae --arch spec --json
     daec size --kernel hist --mode both        # channel sizing report
     daec size --all-kernels --json             # machine-readable sweep
     daec partition --kernel mm                 # N-way address-stream DAG
     daec partition --all-kernels --max-units 3
     daec partition --kernel spmv --dot         # cluster DAG as graphviz
     daec sweep --grid quick                    # memoized capacity DSE
     daec sweep --suite quick --expect out.txt  # deterministic point dump
     daec cache stats                           # on-disk result cache
     daec cache clear

   Files use the textual IR grammar printed by the compiler itself (see
   examples/quickstart.exe output or lib/ir/parser.ml). *)

open Cmdliner

let kernels () = Dae_workloads.Kernels.paper_suite ()

let load_func ~file ~kernel =
  match (file, kernel) with
  | Some path, None ->
    let ic = open_in path in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    Ok (Dae_ir.Parser.parse src, None)
  | None, Some name -> (
    match Dae_workloads.Kernels.by_name (kernels ()) name with
    | Some k -> Ok (k.Dae_workloads.Kernels.build (), Some k)
    | None ->
      Error
        (Fmt.str "unknown kernel %s (try `daec list')" name))
  | Some _, Some _ -> Error "give either a file or --kernel, not both"
  | None, None -> Error "give an IR file or --kernel NAME"

module Json = Dae_sim.Json

(* --- common arguments ------------------------------------------------------ *)

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Textual IR file.")

let kernel_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "k"; "kernel" ] ~docv:"NAME" ~doc:"Benchmark kernel name.")

let mode_arg =
  Arg.(
    value
    & opt (enum [ ("dae", Dae_core.Pipeline.Dae); ("spec", Dae_core.Pipeline.Spec) ])
        Dae_core.Pipeline.Spec
    & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"dae (no speculation) or spec.")

let arch_conv =
  Arg.enum
    [ ("sta", Dae_sim.Machine.Sta); ("dae", Dae_sim.Machine.Dae);
      ("spec", Dae_sim.Machine.Spec); ("oracle", Dae_sim.Machine.Oracle) ]

let archs_arg =
  Arg.(value & opt_all arch_conv [] & info [ "a"; "arch" ] ~docv:"ARCH"
         ~doc:"Architecture: sta, dae, spec or oracle (repeatable).")

let all_arg =
  Arg.(value & flag & info [ "all" ] ~doc:"Run all four architectures.")

let sq_arg =
  Arg.(value & opt int Dae_sim.Config.default.Dae_sim.Config.store_queue_size
       & info [ "sq" ] ~doc:"Store queue size.")

let lq_arg =
  Arg.(value & opt int Dae_sim.Config.default.Dae_sim.Config.load_queue_size
       & info [ "lq" ] ~doc:"Load queue size.")

let fifo_lat_arg =
  Arg.(value & opt int Dae_sim.Config.default.Dae_sim.Config.fifo_latency
       & info [ "fifo-latency" ] ~doc:"Channel latency in cycles.")

let req_fifo_arg =
  Arg.(
    value
    & opt int Dae_sim.Config.default.Dae_sim.Config.request_fifo_capacity
    & info [ "req-fifo" ] ~docv:"N"
        ~doc:"AGU->DU request channel capacity (load and store).")

let val_fifo_arg =
  Arg.(
    value
    & opt int Dae_sim.Config.default.Dae_sim.Config.value_fifo_capacity
    & info [ "val-fifo" ] ~docv:"N"
        ~doc:"DU->unit load-value channel capacity.")

let stv_fifo_arg =
  Arg.(
    value
    & opt int Dae_sim.Config.default.Dae_sim.Config.store_value_fifo_capacity
    & info [ "stv-fifo" ] ~docv:"N"
        ~doc:"CU->DU store-value/poison channel capacity.")

let jobs_arg =
  Arg.(value & opt int (Dae_sim.Runner.default_domains ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Simulate the selected architectures on up to $(docv) \
                 domains (default: the machine's recommended domain \
                 count).")

(* memory hierarchy: --mem picks the model, the geometry flags refine it
   (they are ignored under scratchpad, like the seed behaved) *)
let mem_arg =
  Arg.(
    value
    & opt (enum [ ("scratchpad", `Scratchpad); ("cache", `Cache) ]) `Scratchpad
    & info [ "mem" ] ~docv:"MODEL"
        ~doc:
          "Memory model: scratchpad (fixed-latency, the paper's baseline) \
           or cache (banked non-blocking cache over a DRAM backend; see \
           the --cache-* / --dram-* flags).")

let geom_default = Dae_sim.Config.default_geom
let dram_default = Dae_sim.Config.default_dram

let cache_banks_arg =
  Arg.(value & opt int geom_default.Dae_sim.Config.banks
       & info [ "cache-banks" ] ~docv:"N" ~doc:"Cache banks (lines interleave by modulo).")

let cache_sets_arg =
  Arg.(value & opt int geom_default.Dae_sim.Config.sets
       & info [ "cache-sets" ] ~docv:"N" ~doc:"Sets per cache bank.")

let cache_ways_arg =
  Arg.(value & opt int geom_default.Dae_sim.Config.ways
       & info [ "cache-ways" ] ~docv:"N" ~doc:"Associativity per set.")

let cache_line_arg =
  Arg.(value & opt int geom_default.Dae_sim.Config.line_words
       & info [ "cache-line" ] ~docv:"W" ~doc:"Cache line size in words.")

let cache_hit_arg =
  Arg.(value & opt int geom_default.Dae_sim.Config.hit_latency
       & info [ "cache-hit-latency" ] ~docv:"CYCLES"
           ~doc:"Cache hit latency in cycles.")

let mshrs_arg =
  Arg.(value & opt int geom_default.Dae_sim.Config.mshrs
       & info [ "mshrs" ] ~docv:"N"
           ~doc:"Miss-status holding registers per bank (outstanding \
                 misses; a full bank refuses further misses).")

let dram_banks_arg =
  Arg.(value & opt int dram_default.Dae_sim.Config.dram_banks
       & info [ "dram-banks" ] ~docv:"N" ~doc:"DRAM banks.")

let dram_row_arg =
  Arg.(value & opt int dram_default.Dae_sim.Config.row_words
       & info [ "dram-row" ] ~docv:"W" ~doc:"DRAM row-buffer size in words.")

let dram_hit_arg =
  Arg.(value & opt int dram_default.Dae_sim.Config.t_row_hit
       & info [ "dram-row-hit" ] ~docv:"CYCLES"
           ~doc:"DRAM access latency on a row-buffer hit.")

let dram_miss_arg =
  Arg.(value & opt int dram_default.Dae_sim.Config.t_row_miss
       & info [ "dram-row-miss" ] ~docv:"CYCLES"
           ~doc:"DRAM access latency on a row-buffer miss \
                 (precharge + activate).")

let dram_bus_arg =
  Arg.(value & opt int dram_default.Dae_sim.Config.t_bus
       & info [ "dram-bus" ] ~docv:"CYCLES"
           ~doc:"DRAM data-bus occupancy per transfer.")

let hierarchy_of ~mem ~cb ~cs ~cw ~cl ~ch ~cm ~db ~dr ~dh ~dm ~du =
  match mem with
  | `Scratchpad -> Dae_sim.Config.Scratchpad
  | `Cache ->
    Dae_sim.Config.Hierarchy
      {
        Dae_sim.Config.banks = cb;
        sets = cs;
        ways = cw;
        line_words = cl;
        hit_latency = ch;
        mshrs = cm;
        dram =
          {
            Dae_sim.Config.dram_banks = db;
            row_words = dr;
            t_row_hit = dh;
            t_row_miss = dm;
            t_bus = du;
          };
      }

(* one term folding the twelve flags into a Config.hierarchy *)
let hierarchy_term =
  Term.(
    const
      (fun mem cb cs cw cl ch cm db dr dh dm du ->
        hierarchy_of ~mem ~cb ~cs ~cw ~cl ~ch ~cm ~db ~dr ~dh ~dm ~du)
    $ mem_arg $ cache_banks_arg $ cache_sets_arg $ cache_ways_arg
    $ cache_line_arg $ cache_hit_arg $ mshrs_arg $ dram_banks_arg
    $ dram_row_arg $ dram_hit_arg $ dram_miss_arg $ dram_bus_arg)

let cfg_of ?(hierarchy = Dae_sim.Config.Scratchpad) ~sq ~lq ~fifo_lat
    ~req_fifo ~val_fifo ~stv_fifo () =
  let cfg =
    {
      Dae_sim.Config.default with
      Dae_sim.Config.store_queue_size = sq;
      load_queue_size = lq;
      fifo_latency = fifo_lat;
      request_fifo_capacity = req_fifo;
      value_fifo_capacity = val_fifo;
      store_value_fifo_capacity = stv_fifo;
      hierarchy;
    }
  in
  match Dae_sim.Config.validate cfg with
  | () -> cfg
  | exception Invalid_argument e ->
    Fmt.epr "invalid configuration: %s@." e;
    exit 2

let cache_dir_arg =
  Arg.(value & opt string Dae_sim.Cache.default_dir
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Result cache directory (default: _daec_cache).")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Disable the on-disk result cache: every point re-times.")

let pick_archs ~archs ~all =
  if all then
    [ Dae_sim.Machine.Sta; Dae_sim.Machine.Dae; Dae_sim.Machine.Spec;
      Dae_sim.Machine.Oracle ]
  else if archs = [] then [ Dae_sim.Machine.Spec ]
  else archs

(* --- list ------------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (k : Dae_workloads.Kernels.t) ->
        Fmt.pr "%-6s %s@." k.Dae_workloads.Kernels.name
          k.Dae_workloads.Kernels.description)
      (kernels ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark kernels.")
    Term.(const run $ const ())

(* --- analyze ------------------------------------------------------------------ *)

let analyze_cmd =
  let run file kernel =
    match load_func ~file ~kernel with
    | Error e ->
      Fmt.epr "%s@." e;
      exit 2
    | Ok (f, _) ->
      Fmt.pr "%a@." Dae_ir.Printer.pp_func f;
      let lod = Dae_core.Lod.analyze f in
      Fmt.pr "%a" Dae_core.Lod.pp lod;
      if Dae_core.Lod.has_data_lod lod then
        Fmt.pr
          "note: data LoD present — those operations stay synchronized@.";
      if lod.Dae_core.Lod.chain_heads <> [] then
        Fmt.pr "speculation will hoist requests to: %a@."
          Fmt.(list ~sep:(any ", ") (fun ppf b -> pf ppf "bb%d" b))
          lod.Dae_core.Lod.chain_heads
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the loss-of-decoupling analysis (paper §4).")
    Term.(const run $ file_arg $ kernel_arg)

(* --- compile ------------------------------------------------------------------- *)

let compile_cmd =
  let run file kernel mode no_merge fold if_convert phi_select licm backend =
    match load_func ~file ~kernel with
    | Error e ->
      Fmt.epr "%s@." e;
      exit 2
    | Ok (f, _) ->
      let p = Dae_core.Pipeline.compile ~mode ~merge:(not no_merge) f in
      let post (g : Dae_ir.Func.t) =
        if fold then
          Fmt.pr "; %s: %d constant folds@." g.Dae_ir.Func.name
            (Dae_ir.Const_fold.run g);
        if if_convert then
          Fmt.pr "; %s: %d diamonds flattened@." g.Dae_ir.Func.name
            (Dae_ir.If_convert.run g);
        if phi_select then
          Fmt.pr "; %s: %d phis converted to selects@." g.Dae_ir.Func.name
            (Dae_ir.Phi_to_select.run g);
        if licm then
          Fmt.pr "; %s: %d loop-invariant instrs hoisted@." g.Dae_ir.Func.name
            (Dae_ir.Licm.run g);
        if fold || if_convert || phi_select || licm then
          Dae_ir.Verify.check_exn g
      in
      post p.Dae_core.Pipeline.agu;
      post p.Dae_core.Pipeline.cu;
      (match backend with
      | `Ir ->
        Fmt.pr "; == AGU ==@.%a@." Dae_ir.Printer.pp_func
          p.Dae_core.Pipeline.agu;
        Fmt.pr "; == CU ==@.%a@." Dae_ir.Printer.pp_func p.Dae_core.Pipeline.cu
      | `Dot ->
        Fmt.pr "%a@.%a@." Dae_ir.Dot.pp p.Dae_core.Pipeline.agu Dae_ir.Dot.pp
          p.Dae_core.Pipeline.cu
      | `Desc -> Fmt.pr "%a@." Dae_core.Desc_backend.pp
                   (Dae_core.Desc_backend.lower p)
      | `Cgra -> Fmt.pr "%a@." Dae_core.Cgra_backend.pp
                   (Dae_core.Cgra_backend.lower p));
      Fmt.pr "; %a@." Dae_core.Pipeline.pp_summary p
  in
  let no_merge =
    Arg.(value & flag & info [ "no-merge" ] ~doc:"Disable poison-block merging (§5.3).")
  in
  let fold =
    Arg.(value & flag & info [ "fold" ] ~doc:"Run constant folding on the slices.")
  in
  let if_convert =
    Arg.(value & flag & info [ "if-convert" ]
           ~doc:"Flatten pure diamonds in the slices (partial if-conversion).")
  in
  let phi_select =
    Arg.(value & flag & info [ "phi-select" ]
           ~doc:"Convert eligible φs to selects (§5.4).")
  in
  let licm =
    Arg.(value & flag & info [ "licm" ]
           ~doc:"Hoist loop-invariant pure instructions to preheaders.")
  in
  let backend =
    Arg.(
      value
      & opt
          (enum
             [ ("ir", `Ir); ("desc", `Desc); ("cgra", `Cgra); ("dot", `Dot) ])
          `Ir
      & info [ "b"; "backend" ] ~docv:"BACKEND"
          ~doc:
            "Output form: ir (textual IR), desc (§7.1 prefetcher ISA), cgra \
             (§7.2 stream dataflow) or dot (graphviz).")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Decouple (and optionally speculate) a kernel; print the slices.")
    Term.(
      const run $ file_arg $ kernel_arg $ mode_arg $ no_merge $ fold
      $ if_convert $ phi_select $ licm $ backend)

(* --- run ----------------------------------------------------------------------- *)

let run_cmd =
  let run file kernel archs all sq lq fifo_lat req_fifo val_fifo stv_fifo
      hierarchy jobs =
    match load_func ~file ~kernel with
    | Error e ->
      Fmt.epr "%s@." e;
      exit 2
    | Ok (_, None) ->
      Fmt.epr "run needs --kernel (files carry no input data)@.";
      exit 2
    | Ok (_, Some k) ->
      let cfg =
        cfg_of ~hierarchy ~sq ~lq ~fifo_lat ~req_fifo ~val_fifo ~stv_fifo ()
      in
      let archs = pick_archs ~archs ~all in
      Fmt.pr "%s: %s  (%a)@." k.Dae_workloads.Kernels.name
        k.Dae_workloads.Kernels.description Dae_sim.Config.pp cfg;
      (* the per-arch runs are independent: fan them over the domain pool
         (each worker rebuilds the IR and memory image from the kernel) *)
      Dae_sim.Runner.map_list ~domains:jobs
        ~f:(fun arch ->
          let r =
            Dae_sim.Machine.simulate ~cfg arch
              (k.Dae_workloads.Kernels.build ())
              ~invocations:(k.Dae_workloads.Kernels.invocations ())
              ~mem:(k.Dae_workloads.Kernels.init_mem ())
          in
          let verdict =
            match k.Dae_workloads.Kernels.check r.Dae_sim.Machine.memory with
            | Ok () -> "ok"
            | Error _ -> "WRONG RESULT"
          in
          (arch, r, verdict))
        archs
      |> List.iter (fun (arch, r, verdict) ->
             Fmt.pr
               "  %-7s %9d cycles  misspec %5.1f%%  area %6d ALMs  check: %s@."
               (Dae_sim.Machine.arch_name arch)
               r.Dae_sim.Machine.cycles
               (100. *. r.Dae_sim.Machine.misspec_rate)
               r.Dae_sim.Machine.area.Dae_sim.Area.total verdict)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate a kernel and verify against its reference.")
    Term.(
      const run $ file_arg $ kernel_arg $ archs_arg $ all_arg $ sq_arg
      $ lq_arg $ fifo_lat_arg $ req_fifo_arg $ val_fifo_arg $ stv_fifo_arg
      $ hierarchy_term $ jobs_arg)

(* --- stats --------------------------------------------------------------------- *)

let stats_json ~kernel ~cfg (arch, (r : Dae_sim.Machine.result)) =
  Json.Obj
    [
      ("kernel", Json.Str kernel);
      ("arch", Json.Str (Dae_sim.Machine.arch_name arch));
      ("config", Json.Str (Dae_sim.Config.key cfg));
      ("cycles", Json.Int r.Dae_sim.Machine.cycles);
      ("invocations", Json.Int r.Dae_sim.Machine.invocations);
      ("killed_stores", Json.Int r.Dae_sim.Machine.killed_stores);
      ("committed_stores", Json.Int r.Dae_sim.Machine.committed_stores);
      ( "units",
        Json.Obj
          (List.map
             (fun (unit, t) ->
               ( unit,
                 Json.Obj
                   (List.map
                      (fun (cause, n) -> (cause, Json.Int n))
                      (Dae_sim.Stats.to_list t)) ))
             r.Dae_sim.Machine.stats) );
    ]

let stats_cmd =
  let run file kernel archs all sq lq fifo_lat req_fifo val_fifo stv_fifo
      hierarchy jobs json =
    match load_func ~file ~kernel with
    | Error e ->
      Fmt.epr "%s@." e;
      exit 2
    | Ok (_, None) ->
      Fmt.epr "stats needs --kernel (files carry no input data)@.";
      exit 2
    | Ok (_, Some k) ->
      let cfg =
        cfg_of ~hierarchy ~sq ~lq ~fifo_lat ~req_fifo ~val_fifo ~stv_fifo ()
      in
      let archs = pick_archs ~archs ~all in
      if not json then
        Fmt.pr "%s: %s  (%a)@." k.Dae_workloads.Kernels.name
          k.Dae_workloads.Kernels.description Dae_sim.Config.pp cfg;
      let results =
        Dae_sim.Runner.map_list ~domains:jobs
          ~f:(fun arch ->
            ( arch,
              Dae_sim.Machine.simulate ~cfg arch
                (k.Dae_workloads.Kernels.build ())
                ~invocations:(k.Dae_workloads.Kernels.invocations ())
                ~mem:(k.Dae_workloads.Kernels.init_mem ()) ))
          archs
      in
      if json then
        Fmt.pr "%a@." Json.pp
          (Json.List
             (List.map
                (stats_json ~kernel:k.Dae_workloads.Kernels.name ~cfg)
                results))
      else
        List.iter
          (fun (arch, r) ->
            Fmt.pr "@.%s: %d cycles over %d invocation%s@."
              (Dae_sim.Machine.arch_name arch)
              r.Dae_sim.Machine.cycles r.Dae_sim.Machine.invocations
              (if r.Dae_sim.Machine.invocations = 1 then "" else "s");
            Fmt.pr "%a" Dae_sim.Machine.pp_stats r)
          results
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit one JSON object per architecture (cycles, \
                   invocations, store verdicts and the per-unit stall \
                   partition) instead of the table.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Simulate a kernel and print the per-unit stall attribution \
          (each unit's causes partition its total cycles).")
    Term.(
      const run $ file_arg $ kernel_arg $ archs_arg $ all_arg $ sq_arg
      $ lq_arg $ fifo_lat_arg $ req_fifo_arg $ val_fifo_arg $ stv_fifo_arg
      $ hierarchy_term $ jobs_arg $ json_arg)

(* --- trace --------------------------------------------------------------------- *)

let trace_cmd =
  let run file kernel arch sq lq fifo_lat req_fifo val_fifo stv_fifo
      hierarchy out =
    match load_func ~file ~kernel with
    | Error e ->
      Fmt.epr "%s@." e;
      exit 2
    | Ok (_, None) ->
      Fmt.epr "trace needs --kernel (files carry no input data)@.";
      exit 2
    | Ok (_, Some k) ->
      if arch = Dae_sim.Machine.Sta then begin
        Fmt.epr
          "trace needs a decoupled architecture (dae, spec or oracle)@.";
        exit 2
      end;
      let cfg =
        cfg_of ~hierarchy ~sq ~lq ~fifo_lat ~req_fifo ~val_fifo ~stv_fifo ()
      in
      let r =
        Dae_sim.Machine.simulate ~cfg ~collect:true arch
          (k.Dae_workloads.Kernels.build ())
          ~invocations:(k.Dae_workloads.Kernels.invocations ())
          ~mem:(k.Dae_workloads.Kernels.init_mem ())
      in
      Dae_sim.Trace_export.write_file ~path:out
        ~kernel:k.Dae_workloads.Kernels.name r;
      if out <> "-" then
        Fmt.pr
          "%s: wrote %s (%s, %d cycles, %d invocations; open in \
           ui.perfetto.dev or chrome://tracing)@."
          k.Dae_workloads.Kernels.name out
          (Dae_sim.Machine.arch_name arch)
          r.Dae_sim.Machine.cycles r.Dae_sim.Machine.invocations
  in
  let arch_arg =
    Arg.(value & opt arch_conv Dae_sim.Machine.Spec
         & info [ "a"; "arch" ] ~docv:"ARCH"
             ~doc:"Architecture: dae, spec or oracle.")
  in
  let out_arg =
    Arg.(value & opt string "-"
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Output path for the timeline JSON (default: stdout).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Simulate a kernel and export a Chrome-tracing/Perfetto timeline \
          (unit occupancy slices plus channel-depth counter tracks).")
    Term.(
      const run $ file_arg $ kernel_arg $ arch_arg $ sq_arg $ lq_arg
      $ fifo_lat_arg $ req_fifo_arg $ val_fifo_arg $ stv_fifo_arg
      $ hierarchy_term $ out_arg)

(* --- check --------------------------------------------------------------------- *)

let diag_json (d : Dae_analysis.Diag.t) =
  let module Diag = Dae_analysis.Diag in
  Json.Obj
    ([
       ("severity", Json.Str (Diag.severity_name d.Diag.sev));
       ("analysis", Json.Str (Diag.analysis_name d.Diag.analysis));
       ("slice", Json.Str (Diag.slice_name d.Diag.slice));
     ]
    @ (match d.Diag.block with
      | Some b -> [ ("block", Json.Int b) ]
      | None -> [])
    @ (match d.Diag.edge with
      | Some (a, b) -> [ ("edge", Json.List [ Json.Int a; Json.Int b ]) ]
      | None -> [])
    @ (match d.Diag.mem with Some m -> [ ("mem", Json.Int m) ] | None -> [])
    @ (match d.Diag.arr with Some a -> [ ("arr", Json.Str a) ] | None -> [])
    @ [ ("msg", Json.Str d.Diag.msg) ])

let check_cmd =
  let modes_of = function
    | `Dae -> [ Dae_core.Pipeline.Dae ]
    | `Spec -> [ Dae_core.Pipeline.Spec ]
    | `Both -> [ Dae_core.Pipeline.Dae; Dae_core.Pipeline.Spec ]
  in
  let mode_name = function
    | Dae_core.Pipeline.Dae -> "dae"
    | Dae_core.Pipeline.Spec -> "spec"
  in
  let run file kernel all_kernels mode path_limit verbose json =
    let errs = ref 0 and warns = ref 0 in
    let n_targets = ref 0 in
    let json_items = ref [] in
    let process name f =
      incr n_targets;
      List.iter
        (fun mode ->
          match
            Dae_core.Pipeline.compile ~mode ~check:true (Dae_ir.Func.clone f)
          with
          | exception Dae_core.Pipeline.Compile_error e ->
            incr errs;
            if json then
              json_items :=
                Json.Obj
                  [
                    ("kernel", Json.Str name);
                    ("mode", Json.Str (mode_name mode));
                    ("compile_error", Json.Str e);
                  ]
                :: !json_items
            else
              Fmt.pr "%s (%s): compile error@.  %s@." name (mode_name mode) e
          | p ->
            let ds = Dae_analysis.Checker.run ~path_limit p in
            errs := !errs + Dae_analysis.Diag.errors ds;
            warns := !warns + Dae_analysis.Diag.warnings ds;
            if json then
              json_items :=
                Json.Obj
                  [
                    ("kernel", Json.Str name);
                    ("mode", Json.Str (mode_name mode));
                    ("errors", Json.Int (Dae_analysis.Diag.errors ds));
                    ("warnings", Json.Int (Dae_analysis.Diag.warnings ds));
                    ("diagnostics", Json.List (List.map diag_json ds));
                  ]
                :: !json_items
            else begin
              let shown =
                if verbose then ds
                else
                  List.filter
                    (fun d ->
                      d.Dae_analysis.Diag.sev <> Dae_analysis.Diag.Info)
                    ds
              in
              Fmt.pr "%s (%s): %a" name (mode_name mode)
                Dae_analysis.Diag.pp_report shown
            end)
        (modes_of mode)
    in
    let dispatched =
      if all_kernels then
        Dae_workloads.Kernels.suite_iter (fun k ->
            process k.Dae_workloads.Kernels.name
              (k.Dae_workloads.Kernels.build ()))
      else
        match load_func ~file ~kernel with
        | Error e -> Error e
        | Ok (f, Some k) -> Ok (process k.Dae_workloads.Kernels.name f)
        | Ok (f, None) -> Ok (process f.Dae_ir.Func.name f)
    in
    (match dispatched with
    | Error e ->
      Fmt.epr "%s@." e;
      exit 2
    | Ok () -> ());
    if json then Fmt.pr "%a@." Json.pp (Json.List (List.rev !json_items))
    else if !n_targets > 1 then
      Fmt.pr "total: %d error(s), %d warning(s)@." !errs !warns;
    if !errs > 0 then exit 1
  in
  let all_kernels_arg =
    Arg.(value & flag
         & info [ "all-kernels" ] ~doc:"Check every benchmark kernel.")
  in
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("dae", `Dae); ("spec", `Spec); ("both", `Both) ]) `Both
      & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"dae, spec or both (default).")
  in
  let path_limit_arg =
    Arg.(value & opt int Dae_core.Poison.default_path_limit
         & info [ "path-limit" ] ~docv:"N"
             ~doc:"Path-enumeration budget for the segment and Algorithm 2 \
                   universes (overruns degrade to warnings).")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ]
           ~doc:"Also print info-level diagnostics.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit one JSON object per kernel and mode (error and \
                   warning counts plus every diagnostic, including \
                   info-level) instead of the report.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify the decoupling protocol of compiled slices: \
          channel balance (§3.2), poison coverage (§5.2) and LoD residue \
          (§5.1). Exits 1 when any error-level diagnostic is found.")
    Term.(
      const run $ file_arg $ kernel_arg $ all_kernels_arg $ mode_arg
      $ path_limit_arg $ verbose_arg $ json_arg)

(* --- leak ---------------------------------------------------------------------- *)

let leak_cmd =
  let module Taint = Dae_analysis.Taint in
  let module Leak = Dae_analysis.Leak in
  let site_json (s : Taint.site) =
    Json.Obj
      [
        ("kind", Json.Str (Taint.site_kind_name s.Taint.s_kind));
        ("unit", Json.Str (Dae_sim.Trace.unit_name s.Taint.s_unit));
        ("block", Json.Int s.Taint.s_block);
        ("arr", Json.Str s.Taint.s_arr);
        ("mem", Json.Int s.Taint.s_mem);
        ("speculative", Json.Bool s.Taint.s_speculative);
      ]
  in
  let outcome_json = function
    | Leak.Cycles c -> Json.Int c
    | Leak.Deadlock -> Json.Str "deadlock"
  in
  let witness_json (w : Leak.witness) =
    Json.Obj
      [
        ("arr", Json.Str w.Leak.w_arr);
        ("idx", Json.Int w.Leak.w_idx);
        ("base", Json.Int w.Leak.w_base);
        ("flip", Json.Int w.Leak.w_flip);
        ("digest_differs", Json.Bool w.Leak.w_digest_differs);
        ( "divergences",
          Json.List
            (List.map
               (fun (d : Leak.divergence) ->
                 Json.Obj
                   [
                     ("config", Json.Str d.Leak.d_cfg);
                     ("base", outcome_json d.Leak.d_base);
                     ("flip", outcome_json d.Leak.d_flip);
                     ("cycles_differ", Json.Bool d.Leak.d_cycles_differ);
                     ("stalls_differ", Json.Bool d.Leak.d_stats_differ);
                   ])
               w.Leak.w_divs) );
      ]
  in
  let search_json (r : Leak.t) =
    Json.Obj
      [
        ("reads", Json.Int r.Leak.l_reads);
        ("candidates", Json.Int r.Leak.l_candidates);
        ("probed", Json.Int r.Leak.l_probed);
        ("skipped", Json.Int r.Leak.l_skipped);
        ("witnesses", Json.List (List.map witness_json r.Leak.l_witnesses));
      ]
  in
  let mode_of_arch = function
    | Dae_sim.Machine.Dae -> Some Dae_core.Pipeline.Dae
    | Dae_sim.Machine.Spec | Dae_sim.Machine.Oracle ->
      Some Dae_core.Pipeline.Spec
    | Dae_sim.Machine.Sta -> None
  in
  let run suite kernel_names archs witness budget json hierarchy =
    let archs =
      if archs = [] then [ Dae_sim.Machine.Spec ]
      else if List.mem Dae_sim.Machine.Sta archs then begin
        Fmt.epr "leak needs a decoupled architecture (dae, spec or oracle)@.";
        exit 2
      end
      else archs
    in
    (* --mem cache (and the geometry flags) customize the hierarchy probe
       point; the scratchpad baseline is always probed alongside it *)
    let points =
      match hierarchy with
      | Dae_sim.Config.Scratchpad -> Leak.default_points
      | Dae_sim.Config.Hierarchy _ ->
        [
          ("scratchpad", Dae_sim.Config.default);
          ("cache", { Dae_sim.Config.default with Dae_sim.Config.hierarchy });
        ]
    in
    let failed = ref false in
    let json_items = ref [] in
    let census =
      Dae_workloads.Kernels.suite_iter ~suite ~only:kernel_names
        (fun (k : Dae_workloads.Kernels.t) ->
        let name = k.Dae_workloads.Kernels.name in
        List.iter
          (fun arch ->
            let mode =
              match mode_of_arch arch with
              | Some m -> m
              | None -> assert false
            in
            let mode_name = Dae_sim.Machine.arch_name arch in
            match
              Dae_core.Pipeline.compile ~mode
                (k.Dae_workloads.Kernels.build ())
            with
            | exception Dae_core.Pipeline.Compile_error e ->
              failed := true;
              Fmt.epr "%s (%s): compile error@.  %s@." name mode_name e
            | p ->
              let t = Taint.analyze p in
              let search =
                if witness then
                  match
                    Leak.search ~budget ~points arch
                      (k.Dae_workloads.Kernels.build ())
                      ~invocations:(k.Dae_workloads.Kernels.invocations ())
                      ~mem:(k.Dae_workloads.Kernels.init_mem ())
                  with
                  | r -> Some (Ok r)
                  | exception e -> Some (Error (Printexc.to_string e))
                else None
              in
              if json then
                json_items :=
                  Json.Obj
                    ([
                       ("kernel", Json.Str name);
                       ("arch", Json.Str mode_name);
                       ("clean", Json.Bool (Taint.clean t));
                       ( "sources",
                         Json.List (List.map (fun m -> Json.Int m) t.Taint.sources)
                       );
                       ( "tainted_arrays",
                         Json.List
                           (List.map (fun a -> Json.Str a) t.Taint.tainted_arrays)
                       );
                       ("sites", Json.List (List.map site_json t.Taint.sites));
                     ]
                    @
                    match search with
                    | None -> []
                    | Some (Ok r) -> [ ("witness_search", search_json r) ]
                    | Some (Error e) ->
                      [ ("witness_search_error", Json.Str e) ])
                  :: !json_items
              else begin
                Fmt.pr "== %s (%s) ==@.%a" name mode_name Taint.pp t;
                (match search with
                | None -> ()
                | Some (Ok r) -> Fmt.pr "%a" Leak.pp r
                | Some (Error e) ->
                  failed := true;
                  Fmt.pr "witness search FAILED: %s@." e);
                Fmt.pr "@."
              end)
          archs)
    in
    (match census with
    | Ok () -> ()
    | Error e ->
      Fmt.epr "%s@." e;
      exit 2);
    if json then
      Fmt.pr "%a@." Json.pp (Json.List (List.rev !json_items));
    if !failed then exit 1
  in
  let suite_arg =
    Arg.(
      value
      & opt (enum [ ("quick", `Quick); ("paper", `Paper) ]) `Quick
      & info [ "suite" ] ~docv:"SUITE"
          ~doc:"Workload sizes: quick (test suite) or paper (Table 1).")
  in
  let kernels_arg =
    Arg.(value & opt_all string []
         & info [ "k"; "kernel" ] ~docv:"NAME"
             ~doc:"Restrict to this kernel (repeatable; default: all).")
  in
  let archs_arg =
    Arg.(value & opt_all arch_conv []
         & info [ "a"; "arch" ] ~docv:"ARCH"
             ~doc:"Architecture: dae, spec or oracle (repeatable; default \
                   spec).")
  in
  let witness_arg =
    Arg.(value & flag
         & info [ "witness" ]
             ~doc:"Also search for dynamic interference witnesses: flip one \
                   architecturally dead cell at a time and replay through \
                   the re-timing engine at the scratchpad and cache \
                   configuration points.")
  in
  let budget_arg =
    Arg.(value & opt int 8
         & info [ "budget" ] ~docv:"N"
             ~doc:"Candidate cells to probe per kernel and architecture.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit one JSON object per kernel and architecture.")
  in
  Cmd.v
    (Cmd.info "leak"
       ~doc:
         "Speculative-leakage analysis: statically taint values loaded by \
          hoisted (pre-guard) requests, flag every tainted address, branch \
          condition or produced value (the places a secret can reach the \
          memory ports, the schedule or the channels), and optionally \
          confirm with timing-interference witnesses under --witness. \
          Exits 1 only on compile or witness-search failure — leaks found \
          are a report, not an error.")
    Term.(
      const run $ suite_arg $ kernels_arg $ archs_arg $ witness_arg
      $ budget_arg $ json_arg $ hierarchy_term)

(* --- size ---------------------------------------------------------------------- *)

(* `size --json` on the shared emitter: same shape the sizing analyzer's
   report describes (verdict, critical channel, bound coefficients,
   per-channel depth/rate table). *)
let sizing_json ~kernel ~mode (sz : Dae_analysis.Sizing.t) =
  let module Sizing = Dae_analysis.Sizing in
  let module Channel = Dae_analysis.Channel in
  let chan_json (s : Sizing.sized) =
    Json.Obj
      [
        ("name", Json.Str (Channel.name s.Sizing.sz_chan.Channel.kind));
        ("knob", Json.Str (Channel.knob s.Sizing.sz_chan.Channel.kind));
        ("configured", Json.Int s.Sizing.sz_configured);
        ("min_depth", Json.Int s.Sizing.sz_min);
        ("matched_depth", Json.Int s.Sizing.sz_matched);
        ("rate_lo", Json.Int s.Sizing.sz_chan.Channel.rate.Channel.lo);
        ("rate_hi", Json.Int s.Sizing.sz_chan.Channel.rate.Channel.hi);
        ("spec_hi", Json.Int s.Sizing.sz_chan.Channel.rate.Channel.spec_hi);
        ("kill_hi", Json.Int s.Sizing.sz_chan.Channel.rate.Channel.kill_hi);
      ]
  in
  Json.Obj
    ([
       ("kernel", Json.Str kernel);
       ("mode", Json.Str mode);
       ( "verdict",
         Json.Str
           (match sz.Sizing.verdict with
           | Sizing.Deadlock_free -> "deadlock-free"
           | Sizing.Deadlock _ -> "deadlock") );
       ( "critical",
         match sz.Sizing.critical with
         | Some k -> Json.Str (Channel.name k)
         | None -> Json.Null );
       ("bound_per_event", Json.Int sz.Sizing.bound_per_event);
       ("bound_fill", Json.Int sz.Sizing.bound_fill);
       ( "min_depths",
         Json.Obj
           (List.map
              (fun (s : Sizing.sized) ->
                (Channel.name s.Sizing.sz_chan.Channel.kind,
                 Json.Int s.Sizing.sz_min))
              sz.Sizing.channels) );
       ("channels", Json.List (List.map chan_json sz.Sizing.channels));
     ]
    @
    match sz.Sizing.verdict with
    | Sizing.Deadlock cycles ->
      [ ("deadlock_cycles", Json.List (List.map (fun c -> Json.Str c) cycles)) ]
    | Sizing.Deadlock_free -> [])

let size_cmd =
  let modes_of = function
    | `Dae -> [ Dae_core.Pipeline.Dae ]
    | `Spec -> [ Dae_core.Pipeline.Spec ]
    | `Both -> [ Dae_core.Pipeline.Dae; Dae_core.Pipeline.Spec ]
  in
  let mode_name = function
    | Dae_core.Pipeline.Dae -> "dae"
    | Dae_core.Pipeline.Spec -> "spec"
  in
  (* Optional cross-validation against the simulator: the analyzer's
     minimum depths must complete within the predicted cycle bound, and
     the critical channel at minimum-1 must be rejected by
     Config.validate and then (validation off) either trip the dynamic
     deadlock detector or run no faster than the minimum. Sweep's
     evaluator runs both probes on one lazily prepared job and memoizes
     them in the on-disk result cache, so a warm `size --validate`
     prints the same report without executing a single instruction. *)
  let validate_sim ~cache ~cfg ~path_limit ~mode
      (k : Dae_workloads.Kernels.t) (sz : Dae_analysis.Sizing.t) : bool =
    let arch =
      match mode with
      | Dae_core.Pipeline.Dae -> Dae_sim.Machine.Dae
      | Dae_core.Pipeline.Spec -> Dae_sim.Machine.Spec
    in
    let w = Dae_dse.Sweep.workload_of_kernel ~suite:"paper" k in
    let job =
      Dae_dse.Sweep.job ~cache w
        (Dae_sim.Retime.plan arch w.Dae_dse.Sweep.w_func)
    in
    let v = Dae_dse.Sweep.validate_sizing job ~cfg ~path_limit sz in
    (match v.Dae_dse.Sweep.sv_min with
    | Ok (cycles, b) ->
      Fmt.pr "  sim at min depths: %d cycles (bound %d) %s@." cycles b
        (if cycles <= b then "ok" else "EXCEEDS BOUND")
    | Error e -> Fmt.pr "  sim at min depths: FAILED (%s)@." e);
    (match v.Dae_dse.Sweep.sv_probe with
    | None -> ()
    | Some (kind, outcome) -> (
      let cname = Dae_analysis.Channel.name kind in
      match outcome with
      | Ok (Dae_dse.Sweep.Probe_cycles c) ->
        Fmt.pr "  sim at %s min-1: %d cycles (no deadlock: stall shifts)@."
          cname c
      | Ok (Dae_dse.Sweep.Probe_deadlock msg) ->
        Fmt.pr "  sim at %s min-1: dynamic deadlock reproduced (%s)@." cname
          msg
      | Ok (Dae_dse.Sweep.Probe_rejected msg) ->
        Fmt.pr "  sim at %s min-1: rejected (%s)@." cname msg
      | Error e ->
        Fmt.pr "  sim at %s min-1: unexpected failure (%s)@." cname e));
    Dae_dse.Sweep.sizing_ok v
  in
  let run file kernel all_kernels mode json validate sq lq fifo_lat req_fifo
      val_fifo stv_fifo hierarchy no_cache cache_dir path_limit =
    let cfg =
      cfg_of ~hierarchy ~sq ~lq ~fifo_lat ~req_fifo ~val_fifo ~stv_fifo ()
    in
    let cache =
      if no_cache then Dae_sim.Cache.disabled ()
      else Dae_sim.Cache.create ~dir:cache_dir ()
    in
    let failed = ref false in
    let json_items = ref [] in
    let process name f krec =
      List.iter
        (fun mode ->
          match Dae_core.Pipeline.compile ~mode (Dae_ir.Func.clone f) with
          | exception Dae_core.Pipeline.Compile_error e ->
            failed := true;
            Fmt.epr "%s (%s): compile error@.  %s@." name (mode_name mode) e
          | p -> (
            match Dae_analysis.Sizing.analyze ~path_limit ~cfg p with
            | Error (b : Dae_analysis.Segments.budget) ->
              failed := true;
              Fmt.epr
                "%s (%s): sizing skipped — %d blocks explored from bb%d \
                 exceed the segment budget of %d@."
                name (mode_name mode) b.Dae_analysis.Segments.explored
                b.Dae_analysis.Segments.start b.Dae_analysis.Segments.limit
            | Ok sz ->
              if json then
                json_items :=
                  sizing_json ~kernel:name ~mode:(mode_name mode) sz
                  :: !json_items
              else begin
                Fmt.pr "%s (%s): %a" name (mode_name mode)
                  Dae_analysis.Sizing.pp sz;
                match krec with
                | Some k when validate ->
                  if not (validate_sim ~cache ~cfg ~path_limit ~mode k sz)
                  then failed := true
                | _ -> ()
              end;
              if Dae_analysis.Sizing.deadlocks sz then failed := true))
        (modes_of mode)
    in
    let dispatched =
      if all_kernels then
        Dae_workloads.Kernels.suite_iter (fun k ->
            process k.Dae_workloads.Kernels.name
              (k.Dae_workloads.Kernels.build ())
              (Some k))
      else
        match load_func ~file ~kernel with
        | Error e -> Error e
        | Ok (f, Some k) -> Ok (process k.Dae_workloads.Kernels.name f (Some k))
        | Ok (f, None) -> Ok (process f.Dae_ir.Func.name f None)
    in
    (match dispatched with
    | Error e ->
      Fmt.epr "%s@." e;
      exit 2
    | Ok () -> ());
    if json then Fmt.pr "%a@." Json.pp (Json.List (List.rev !json_items));
    if !failed then exit 1
  in
  let all_kernels_arg =
    Arg.(value & flag
         & info [ "all-kernels" ] ~doc:"Size every benchmark kernel.")
  in
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("dae", `Dae); ("spec", `Spec); ("both", `Both) ]) `Both
      & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"dae, spec or both (default).")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit one JSON object per kernel and mode.")
  in
  let validate_arg =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:"Cross-validate against the simulator: run at the \
                   computed minimum depths (must meet the cycle bound) and \
                   at minimum-1 on the critical channel (must deadlock, be \
                   rejected, or stall harder). Needs --kernel data.")
  in
  let path_limit_arg =
    Arg.(value & opt int Dae_core.Poison.default_path_limit
         & info [ "path-limit" ] ~docv:"N"
             ~doc:"Path-enumeration budget for the segment universe.")
  in
  Cmd.v
    (Cmd.info "size"
       ~doc:
         "Statically size the inter-unit channels: minimum safe and \
          slack-matched depth per channel, deadlock-freedom proof for the \
          given capacities, and the predicted dominant Fifo_full channel. \
          Exits 1 on a provable deadlock.")
    Term.(
      const run $ file_arg $ kernel_arg $ all_kernels_arg $ mode_arg
      $ json_arg $ validate_arg $ sq_arg $ lq_arg $ fifo_lat_arg
      $ req_fifo_arg $ val_fifo_arg $ stv_fifo_arg $ hierarchy_term
      $ no_cache_arg $ cache_dir_arg $ path_limit_arg)

(* --- partition ----------------------------------------------------------------- *)

let partition_cmd =
  let module Partition = Dae_analysis.Partition in
  let cluster_json (c : Partition.cluster) =
    Json.Obj
      [
        ("unit", Json.Int c.Partition.cl_unit);
        ("name", Json.Str (Partition.unit_name c.Partition.cl_unit));
        ( "arrays",
          Json.List (List.map (fun a -> Json.Str a) c.Partition.cl_arrays) );
        ("loads", Json.Int c.Partition.cl_loads);
        ("stores", Json.Int c.Partition.cl_stores);
        ("traffic", Json.Int c.Partition.cl_traffic);
        ("mlp", Json.Int c.Partition.cl_streams);
      ]
  in
  let edge_json (e : Partition.edge) =
    Json.Obj
      [
        ("src", Json.Int e.Partition.e_src);
        ("dst", Json.Int e.Partition.e_dst);
        ("kind", Json.Str (Partition.edge_kind_name e.Partition.e_kind));
        ("src_arr", Json.Str e.Partition.e_src_arr);
        ("dst_arr", Json.Str e.Partition.e_dst_arr);
      ]
  in
  let run file kernel all_kernels max_units json dot =
    let failed = ref false in
    let json_items = ref [] in
    let process name f =
      let pa = Partition.analyze ?max_units (Dae_ir.Func.clone f) in
      if dot then Fmt.pr "%a" Partition.pp_dot pa
      else begin
        (* re-verify the emitted DAG end to end: compile under the
           assignment, then run the generalized soundness checker and the
           sizing analyzer over the N-way pipeline *)
        let verify =
          match
            Dae_core.Pipeline.compile ~mode:Dae_core.Pipeline.Dae
              ~partition:pa.Partition.assignment (Dae_ir.Func.clone f)
          with
          | exception Dae_core.Pipeline.Compile_error e -> Error e
          | p ->
            Ok
              ( Dae_analysis.Checker.run p,
                Dae_analysis.Sizing.analyze ~cfg:Dae_sim.Config.default p )
        in
        if json then
          json_items :=
            Json.Obj
              ([
                 ("kernel", Json.Str name);
                 ("n_units", Json.Int (List.length pa.Partition.clusters));
                 ("n_arrays", Json.Int pa.Partition.n_arrays);
                 ( "clusters",
                   Json.List (List.map cluster_json pa.Partition.clusters) );
                 ("edges", Json.List (List.map edge_json pa.Partition.edges));
               ]
              @
              match verify with
              | Error e ->
                failed := true;
                [ ("compile_error", Json.Str e) ]
              | Ok (ds, sz) ->
                let errs = Dae_analysis.Diag.errors ds in
                if errs > 0 then failed := true;
                [
                  ("check_errors", Json.Int errs);
                  ("check_warnings", Json.Int (Dae_analysis.Diag.warnings ds));
                  ("diagnostics", Json.List (List.map diag_json ds));
                  ( "sizing",
                    match sz with
                    | Error _ -> Json.Str "skipped"
                    | Ok sz ->
                      if Dae_analysis.Sizing.deadlocks sz then begin
                        failed := true;
                        Json.Str "deadlock"
                      end
                      else Json.Str "deadlock-free" );
                ])
            :: !json_items
        else begin
          Fmt.pr "%s: %a" name Partition.pp pa;
          match verify with
          | Error e ->
            failed := true;
            Fmt.pr "  compile error: %s@." e
          | Ok (ds, sz) ->
            let errs = Dae_analysis.Diag.errors ds in
            if errs > 0 then failed := true;
            Fmt.pr "  check (dae): %d error(s), %d warning(s)@." errs
              (Dae_analysis.Diag.warnings ds);
            List.iter
              (fun d ->
                if d.Dae_analysis.Diag.sev <> Dae_analysis.Diag.Info then
                  Fmt.pr "    %a@." Dae_analysis.Diag.pp d)
              ds;
            (match sz with
            | Error (b : Dae_analysis.Segments.budget) ->
              Fmt.pr "  sizing (dae): skipped (segment budget %d exceeded)@."
                b.Dae_analysis.Segments.limit
            | Ok sz ->
              if Dae_analysis.Sizing.deadlocks sz then begin
                failed := true;
                Fmt.pr "  sizing (dae): DEADLOCK at default depths@."
              end
              else Fmt.pr "  sizing (dae): deadlock-free at default depths@.")
        end
      end
    in
    let dispatched =
      if all_kernels then
        Dae_workloads.Kernels.suite_iter (fun k ->
            process k.Dae_workloads.Kernels.name
              (k.Dae_workloads.Kernels.build ()))
      else
        match load_func ~file ~kernel with
        | Error e -> Error e
        | Ok (f, Some k) -> Ok (process k.Dae_workloads.Kernels.name f)
        | Ok (f, None) -> Ok (process f.Dae_ir.Func.name f)
    in
    (match dispatched with
    | Error e ->
      Fmt.epr "%s@." e;
      exit 2
    | Ok () -> ());
    if json then Fmt.pr "%a@." Json.pp (Json.List (List.rev !json_items));
    if !failed then exit 1
  in
  let all_kernels_arg =
    Arg.(value & flag
         & info [ "all-kernels" ] ~doc:"Partition every benchmark kernel.")
  in
  let max_units_arg =
    Arg.(value & opt (some int) None
         & info [ "max-units" ] ~docv:"N"
             ~doc:"Cap the access-unit count: over budget, the two \
                   lightest-traffic clusters merge repeatedly. 1 recovers \
                   the classic single-AGU split.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit one JSON object per kernel (clusters, edges and \
                   the verification verdicts).")
  in
  let dot_arg =
    Arg.(value & flag
         & info [ "dot" ]
             ~doc:"Emit the cluster DAG as graphviz instead of the report \
                   (skips the compile/check/size verification).")
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:
         "Statically partition a kernel's address streams into an N-way \
          access-unit DAG: cluster loads/stores by array and \
          address-dataflow reachability, report per-unit traffic and MLP, \
          then re-verify the emitted assignment with the soundness checker \
          and the channel-sizing analyzer. Exits 1 when verification \
          fails.")
    Term.(
      const run $ file_arg $ kernel_arg $ all_kernels_arg $ max_units_arg
      $ json_arg $ dot_arg)

(* --- sweep --------------------------------------------------------------------- *)

let sweep_cmd =
  let run suite kernel_names archs grid hierarchy jobs no_cache cache_dir
      check no_sizing_check expect min_hit_rate quiet =
    let suite_name, suite_kernels =
      match suite with
      | `Quick -> ("quick", Dae_workloads.Kernels.test_suite ())
      | `Paper -> ("paper", Dae_workloads.Kernels.paper_suite ())
    in
    let selected =
      if kernel_names = [] then suite_kernels
      else
        List.filter
          (fun (k : Dae_workloads.Kernels.t) ->
            List.mem k.Dae_workloads.Kernels.name kernel_names)
          suite_kernels
    in
    if selected = [] then begin
      Fmt.epr "no kernels selected (try `daec list')@.";
      exit 2
    end;
    let workloads =
      List.map (Dae_dse.Sweep.workload_of_kernel ~suite:suite_name) selected
    in
    let archs =
      if archs = [] then
        [ Dae_sim.Machine.Dae; Dae_sim.Machine.Spec; Dae_sim.Machine.Oracle ]
      else archs
    in
    let axes =
      match grid with
      | `Default -> Dae_dse.Sweep.default_axes
      | `Quick -> Dae_dse.Sweep.quick_axes
      | `Hierarchy -> Dae_dse.Sweep.hierarchy_axes
    in
    let cache =
      if no_cache then Dae_sim.Cache.disabled ()
      else Dae_sim.Cache.create ~dir:cache_dir ()
    in
    (* the hierarchy is not a swept axis: it joins the base config, so the
       whole grid re-times under the selected memory model (and the cache
       keys pick it up through Config.key) *)
    let base = { Dae_sim.Config.default with Dae_sim.Config.hierarchy } in
    Dae_sim.Config.validate base;
    let result =
      Dae_dse.Sweep.run ~domains:jobs ~base ~check
        ~sizing_check:(not no_sizing_check) ~cache ~axes ~archs workloads
    in
    (match expect with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      List.iter
        (fun p -> Printf.fprintf oc "%s\n" (Fmt.str "%a" Dae_dse.Sweep.pp_point p))
        result.Dae_dse.Sweep.points;
      close_out oc);
    let s = result.Dae_dse.Sweep.summary in
    if not quiet then Fmt.pr "%a@." Dae_dse.Sweep.pp_summary s;
    let failed = ref false in
    List.iter
      (fun e ->
        failed := true;
        Fmt.epr "cross-check FAILED: %s@." e)
      s.Dae_dse.Sweep.sm_check_failures;
    List.iter
      (fun e ->
        failed := true;
        Fmt.epr "sizing violation: %s@." e)
      s.Dae_dse.Sweep.sm_sizing_violations;
    (match min_hit_rate with
    | Some r when s.Dae_dse.Sweep.sm_hit_rate < r ->
      failed := true;
      Fmt.epr "cache hit rate %.1f%% below required %.1f%%@."
        (100. *. s.Dae_dse.Sweep.sm_hit_rate)
        (100. *. r)
    | _ -> ());
    if !failed then exit 1
  in
  let suite_arg =
    Arg.(
      value
      & opt (enum [ ("quick", `Quick); ("paper", `Paper) ]) `Quick
      & info [ "suite" ] ~docv:"SUITE"
          ~doc:"Workload sizes: quick (test suite) or paper (Table 1).")
  in
  let kernels_arg =
    Arg.(value & opt_all string []
         & info [ "k"; "kernel" ] ~docv:"NAME"
             ~doc:"Restrict to this kernel (repeatable; default: all).")
  in
  let grid_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("default", `Default); ("quick", `Quick);
               ("hierarchy", `Hierarchy) ])
          `Default
      & info [ "grid" ] ~docv:"GRID"
          ~doc:"Configuration grid: default (648 capacity points per \
                kernel and architecture), quick (12, the CI grid) or \
                hierarchy (25 memory-system points at pinned capacities — \
                the scratchpad anchor plus cache banks/ways/MSHRs crossed \
                with a healthy and a starved DRAM model; the whole grid \
                shares one functional execution per kernel and \
                architecture).")
  in
  let check_arg =
    Arg.(value & opt int 1
         & info [ "check" ] ~docv:"N"
             ~doc:"Sampled equivalence audits per (kernel, arch) job: \
                   re-simulate $(docv) swept configurations from \
                   scratch (fresh plan, prepare and replay) and require \
                   bit-identical cycles and stall partitions. 0 \
                   disables.")
  in
  let no_sizing_check_arg =
    Arg.(value & flag
         & info [ "no-sizing-check" ]
             ~doc:"Skip cross-validating swept deadlocks against the \
                   static sizing analyzer's minimum depths.")
  in
  let expect_arg =
    Arg.(value & opt (some string) None
         & info [ "expect" ] ~docv:"FILE"
             ~doc:"Write one deterministic line per point (kernel, arch, \
                   config, outcome) to $(docv) — diffable across cold and \
                   warm sweeps.")
  in
  let min_hit_rate_arg =
    Arg.(value & opt (some float) None
         & info [ "min-hit-rate" ] ~docv:"R"
             ~doc:"Exit nonzero when the cache hit rate falls below \
                   $(docv) (0..1); warm CI re-sweeps pass 0.95.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the summary.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Design-space exploration: re-time every kernel and architecture \
          over a FIFO/LSQ capacity grid. The functional execution runs \
          once per (kernel, arch) and each configuration only replays the \
          stored traces; results are memoized on disk, so a warm re-sweep \
          is pure cache lookups. Exits 1 on any cross-check failure, \
          sizing violation or missed --min-hit-rate.")
    Term.(
      const run $ suite_arg $ kernels_arg $ archs_arg $ grid_arg
      $ hierarchy_term $ jobs_arg $ no_cache_arg $ cache_dir_arg $ check_arg
      $ no_sizing_check_arg $ expect_arg $ min_hit_rate_arg $ quiet_arg)

(* --- cache --------------------------------------------------------------------- *)

let cache_cmd =
  let run action cache_dir =
    let cache = Dae_sim.Cache.create ~dir:cache_dir () in
    match action with
    | `Stats ->
      let d = Dae_sim.Cache.disk_stats cache in
      Fmt.pr "dir:     %s@.engine:  %s@.entries: %d@.bytes:   %d@."
        cache_dir Dae_sim.Cache.version d.Dae_sim.Cache.entries
        d.Dae_sim.Cache.bytes;
      (* re-timed points (sweep and bench) and size --validate probes —
         report the populations separately *)
      List.iter
        (fun (kind, (n, b)) ->
          Fmt.pr "  %-14s %d entr%s, %d bytes@." kind n
            (if n = 1 then "y" else "ies")
            b)
        d.Dae_sim.Cache.by_kind
    | `Clear ->
      let n = Dae_sim.Cache.clear cache in
      Fmt.pr "removed %d entr%s@." n (if n = 1 then "y" else "ies")
  in
  let action_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("stats", `Stats); ("clear", `Clear) ])) None
      & info [] ~docv:"ACTION" ~doc:"stats or clear.")
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect (stats) or empty (clear) the on-disk re-timing result \
          cache used by `daec sweep'. Entries are content-addressed and \
          versioned by the timing-engine stamp, so clearing is never \
          required for correctness.")
    Term.(const run $ action_arg $ cache_dir_arg)

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  let info =
    Cmd.info "daec" ~version:"1.0.0"
      ~doc:"Speculative decoupled access/execute compiler and simulator."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; analyze_cmd; compile_cmd; run_cmd; stats_cmd;
            trace_cmd; check_cmd; leak_cmd; size_cmd; partition_cmd;
            sweep_cmd; cache_cmd ]))
