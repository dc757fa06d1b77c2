(* The benchmark's entry point.

     perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Builds the workload's seeded inputs many times (the median build is
   [setup_s]), then runs whole passes over its points for [--seconds]
   and reports the median pass. With [--trace 1] half the time runs
   untraced passes and half traced ones, and the run reports per-layer
   self times instead of the end-to-end figures. Every pass goes through
   the correctness gate. The last line of stdout is the JSON result. *)

module Span = Perfbench_lib.Span
module Arith = Perfbench_lib.Arith

(* set-up is timed in batches of back-to-back builds lasting at least
   [batch_s]; at least [setup_batches] batches and [setup_budget] seconds *)
let batch_s = 0.02
let setup_batches = 5
let setup_budget = 0.5

let now = Unix.gettimeofday

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- one pass ----------------------------------------------------------------- *)

type pass_result = {
  gate : Gate.t;
  wall : float;  (** the whole pass *)
  timed : float;  (** the timed phase ([wall] unless the workload says) *)
  spans : Span.rec_ list;  (** traced passes only *)
  extra : (string * float) list;
}

let run_pass ~traced ~expected (pass : Workloads.pass) =
  let g = Gate.create () in
  Hashtbl.reset Workloads.extra;
  Span.reset ();
  (* every pass starts after a full major collection *)
  Gc.full_major ();
  Span.enabled := traced;
  let t0 = now () in
  let timed = Span.span "other" (fun () -> pass ~traced g) in
  let wall = now () -. t0 in
  Span.enabled := false;
  Option.iter (Gate.check_expected g) expected;
  {
    gate = g;
    wall;
    timed = Option.value ~default:wall timed;
    spans = (if traced then Span.all () else []);
    extra = Hashtbl.fold (fun k v acc -> (k, v) :: acc) Workloads.extra [];
  }

(* Whole passes for [budget] seconds: a further pass starts only if the
   median pass so far still fits. At least one pass. *)
let run_passes ~traced ~expected ~budget pass =
  let t0 = now () in
  let rec go acc =
    let acc = run_pass ~traced ~expected pass :: acc in
    let typical = Arith.median (List.map (fun r -> r.wall) acc) in
    if now () -. t0 +. typical <= budget then go acc else List.rev acc
  in
  go []

(* --- metrics ---------------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let median_of f rs = Arith.median (List.map f rs)

let points_of (r : pass_result) = List.length (Gate.points r.gate)
let sim_cycles (r : pass_result) = List.fold_left ( + ) 0 r.gate.Gate.sim_cycles

let end_to_end ~setup_s (rs : pass_result list) =
  let first = List.hd rs in
  let wall = median_of (fun r -> r.timed) rs in
  [
    m "wall_s" "s" wall;
    m "points_per_s" "1/s" (float_of_int (points_of first) /. wall);
    m "sim_mcycles_per_s" "Mcycles/s" (float_of_int (sim_cycles first) /. wall /. 1e6);
    m "setup_s" "s" setup_s;
    m "peak_rss_mb" "MB" (peak_rss_mb ());
    m "sim_cycles_geomean" "cycles"
      (Option.value ~default:0.
         (Arith.geomean (List.map float_of_int first.gate.Gate.sim_cycles)));
  ]

(* The layers a span can be booked to; "other" is the pass itself. *)
let layers =
  [
    "other"; "plan"; "compile"; "prepare"; "check"; "timing.scratchpad"; "timing.hierarchy";
    "timing.deadlock"; "cache.find"; "cache.store"; "sweep"; "sweep.crosscheck"; "checker";
    "sizing"; "partition"; "taint"; "pool";
  ]

(* Stall causes kept per unit group: those nonzero on some workload at
   the default seed. Anything else is summed into sim.unlisted_cycles. *)
let sim_causes =
  [
    ("STA", [ "busy" ]);
    ("AGU", [ "busy"; "fifo_full"; "fifo_empty"; "sched_wait"; "drain" ]);
    ("AU", [ "busy"; "fifo_empty"; "sched_wait"; "drain" ]);
    ("CU", [ "busy"; "fifo_full"; "fifo_empty"; "sched_wait"; "drain" ]);
    ( "DU",
      [ "busy"; "fifo_full"; "fifo_empty"; "lsq_alloc"; "raw_wait"; "port_contention"; "poison_wait";
        "mem_wait"; "drain"; "mshr_full"; "dram_bank" ] );
  ]

let sim_metrics (g : Gate.t) =
  let listed =
    List.concat_map
      (fun (u, cs) ->
        List.map
          (fun c ->
            m (Printf.sprintf "sim.%s.%s_cycles" u c) "cycles"
              (float_of_int (Option.value ~default:0 (Hashtbl.find_opt g.Gate.stalls (u, c)))))
          cs)
      sim_causes
  in
  let unlisted =
    Hashtbl.fold
      (fun (u, c) n acc ->
        match List.assoc_opt u sim_causes with
        | Some cs when List.mem c cs -> acc
        | _ -> acc + n)
      g.Gate.stalls 0
  in
  let kc = g.Gate.killed + g.Gate.committed in
  listed
  @ [
      m "sim.unlisted_cycles" "cycles" (float_of_int unlisted);
      m "sim.misspec_rate" "ratio"
        (if kc = 0 then 0. else float_of_int g.Gate.killed /. float_of_int kc);
    ]

(* Per-layer figures of one traced pass. *)
let layer_metrics (r : pass_result) =
  let by = Arith.by_layer (List.map (fun (s : Span.rec_) -> s.Span.s) r.spans) in
  let self l = Option.fold ~none:(0., 0) ~some:Fun.id (List.assoc_opt l by) in
  let sum_spans f pred =
    List.fold_left (fun a (s : Span.rec_) -> if pred s.Span.s.Arith.name then a +. f s else a) 0. r.spans
  in
  let timing l = String.length l > 7 && String.sub l 0 7 = "timing." in
  let accounted = List.fold_left (fun a (_, (t, _)) -> a +. t) 0. by in
  let per_layer =
    List.concat_map
      (fun l ->
        let t, c = self l in
        [ m (l ^ ".s") "s" t; m (l ^ ".calls") "count" (float_of_int c) ])
      layers
  in
  let mcps l =
    let t, _ = self l in
    let cyc = sum_spans (fun s -> float_of_int s.Span.cycles) (( = ) l) in
    m (l ^ ".mcycles_per_s") "Mcycles/s" (if t > 0. then cyc /. t /. 1e6 else 0.)
  in
  (* host seconds per point: the self time of every span that served it *)
  let point_of = Hashtbl.create 1024 in
  List.iter (fun (x : Span.rec_) -> Hashtbl.replace point_of x.Span.s.Arith.id x.Span.point) r.spans;
  let per_point = Hashtbl.create 256 in
  List.iter
    (fun ((s : Arith.span), t) ->
      match Hashtbl.find_opt point_of s.Arith.id with
      | Some p when p <> "" ->
        Hashtbl.replace per_point p (t +. Option.value ~default:0. (Hashtbl.find_opt per_point p))
      | _ -> ())
    (Arith.self_times (List.map (fun (x : Span.rec_) -> x.Span.s) r.spans));
  let tail_pct, tail_s, samples =
    match Arith.tail (Hashtbl.fold (fun _ t acc -> t :: acc) per_point []) with
    | Some (p, v, n) -> (p, v, n)
    | None -> (0., 0., Hashtbl.length per_point)
  in
  per_layer
  @ [
      mcps "timing.scratchpad";
      mcps "timing.hierarchy";
      m "prepare.minor_mwords" "Mwords" (sum_spans (fun s -> s.Span.minor_words) (( = ) "prepare") /. 1e6);
      m "timing.minor_mwords" "Mwords" (sum_spans (fun s -> s.Span.minor_words) timing /. 1e6);
      m "trace.accounted_s" "s" accounted;
      m "point.tail_pct" "%" tail_pct;
      m "point.tail_s" "s" tail_s;
      m "point.samples" "count" (float_of_int samples);
    ]

(* Figures a workload reports itself, absent (0) where it has none. *)
let extra_names =
  [
    ("pool.busy_s", "s"); ("pool.utilization", "ratio"); ("pool.steals", "count");
    ("cache.store.bytes", "bytes"); ("cache.hit_rate", "ratio"); ("cache.corrupt", "count");
    ("sweep.warm_points_per_s", "1/s"); ("sizing.budget_exceeded", "count");
  ]

let traced_metrics ~setup_s ~(untraced : pass_result list) (traced : pass_result list) =
  let per_pass r =
    layer_metrics r
    @ List.map
        (fun (n, u) -> m n u (Option.value ~default:0. (List.assoc_opt n r.extra)))
        extra_names
  in
  let tables = List.map per_pass traced in
  let median_metric (x : metric) =
    { x with value = Arith.median (List.map (fun t -> (List.find (fun y -> y.name = x.name) t).value) tables) }
  in
  let traced_wall = median_of (fun r -> r.wall) traced in
  let untraced_wall = median_of (fun r -> r.wall) untraced in
  let verdicts = List.concat_map (fun r -> List.map snd (Gate.points r.gate)) (untraced @ traced) in
  List.map median_metric (List.hd tables)
  @ [
      m "workloads.build_s" "s" setup_s;
      m "trace.wall_s" "s" traced_wall;
      m "trace.untraced_wall_s" "s" untraced_wall;
      m "trace.overhead_s" "s" (traced_wall -. untraced_wall);
      m "gate.failed_frac" "ratio" (Arith.failed_frac verdicts);
    ]
  @ sim_metrics (List.hd untraced).gate

(* --- output --------------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name) (json_number x.value)
              (json_string x.unit_))
          metrics))

(* Spans as a Chrome/Perfetto trace, written when the run ends. *)
let write_trace path (rs : pass_result list) =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  let first = ref true in
  List.iteri
    (fun pass r ->
      List.iter
        (fun (x : Span.rec_) ->
          let s = x.Span.s in
          if not !first then output_string oc ",\n";
          first := false;
          Printf.fprintf oc
            "{\"name\": %s, \"ph\": \"X\", \"pid\": %d, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \
             \"args\": {\"id\": %d, \"parent\": %d, \"point\": %s, \"cycles\": %d}}"
            (json_string s.Arith.name) (pass + 1) x.Span.domain (s.Arith.t0 *. 1e6)
            ((s.Arith.t1 -. s.Arith.t0) *. 1e6)
            s.Arith.id s.Arith.parent (json_string x.Span.point) x.Span.cycles)
        r.spans)
    rs;
  output_string oc "\n]}\n";
  close_out oc

(* --- main -------------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let record = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed (0: the default instances)");
      ("--seconds", Arg.Set_int seconds, "S measuring budget");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
      ("--record", Arg.Set record, " write expected/<workload>.txt (seed 0 only)");
    ]
  in
  let usage = "perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match List.find_opt (fun (w : Workloads.t) -> w.Workloads.name = !workload) Workloads.all with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace takes 0 or 1"; exit 2);
  if !seconds < 1 then (prerr_endline "perfbench: --seconds must be positive"; exit 2);
  if !record && !seed <> 0 then (prerr_endline "perfbench: --record needs --seed 0"; exit 2);
  let expected =
    if !seed <> 0 || !record then None
    else
      match Gate.read_expected w.Workloads.name with
      | Some e -> Some e
      | None ->
        Printf.eprintf "perfbench: missing %s\n" (Gate.expected_path w.Workloads.name);
        exit 1
  in
  (* set-up: the median per-build time over the batches; the pass runs
     on one more build *)
  let setups =
    let t0 = now () in
    let rec batch k t =
      let (_ : Workloads.pass) = w.Workloads.setup ~seed:!seed in
      let dt = now () -. t in
      if dt >= batch_s then dt /. float_of_int k else batch (k + 1) t
    in
    let rec go acc =
      Gc.full_major ();
      let acc = batch 1 (now ()) :: acc in
      if List.length acc >= setup_batches && now () -. t0 >= setup_budget then acc else go acc
    in
    go []
  in
  let pass = w.Workloads.setup ~seed:!seed in
  let setup_s = Arith.median setups in
  let budget = float_of_int !seconds in
  let untraced, traced =
    if !trace = 0 then (run_passes ~traced:false ~expected ~budget pass, [])
    else
      let u = run_passes ~traced:false ~expected ~budget:(budget /. 2.) pass in
      (u, run_passes ~traced:true ~expected ~budget:(budget /. 2.) pass)
  in
  Workloads.rm_rf Workloads.cache_dir;
  let all = untraced @ traced in
  (* every pass, traced or not, must reproduce the first one exactly *)
  let first = (List.hd all).gate in
  List.iter
    (fun r ->
      List.iter
        (fun (k, v) ->
          if List.assoc_opt k r.gate.Gate.lines <> Some v then
            Gate.fail r.gate k "result differs between passes")
        first.Gate.lines)
    (List.tl all);
  if !record then begin
    Gate.write_expected w.Workloads.name (Gate.sorted_lines (List.hd untraced).gate);
    Printf.eprintf "perfbench: wrote %s\n" (Gate.expected_path w.Workloads.name)
  end;
  let attempted = List.fold_left (fun a r -> a + points_of r) 0 all in
  let failures = List.concat_map (fun r -> Gate.failures r.gate) all in
  let failed =
    List.fold_left
      (fun a r -> a + List.length (List.filter (fun (_, v) -> Arith.failed v) (Gate.points r.gate)))
      0 all
  in
  List.iteri (fun i (n, msg) -> if i < 50 then Printf.printf "FAIL %s: %s\n" n msg) failures;
  let digests = List.sort_uniq compare (List.map (fun r -> Gate.point_digest r.gate) all) in
  let walls rs = String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.timed) rs) in
  Printf.printf
    "perfbench: %s seed %d, %d domain(s); set-up %.6f s (%d batches); passes untraced [%s] traced [%s]; \
     peak RSS %.1f MB; point digest %s\n"
    w.Workloads.name !seed w.Workloads.domains setup_s (List.length setups) (walls untraced) (walls traced)
    (peak_rss_mb ())
    (String.concat "," digests);
  if traced <> [] then begin
    Workloads.mkdir_out ();
    write_trace (Printf.sprintf "%s/trace-%s-%d.json" Workloads.out_dir w.Workloads.name !seed) traced
  end;
  let metrics =
    if !trace = 0 then end_to_end ~setup_s untraced else traced_metrics ~setup_s ~untraced traced
  in
  let correct = failed = 0 in
  print_endline (result_line ~correct ~attempted ~failed metrics)
