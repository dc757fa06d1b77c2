(* Chrome-tracing / Perfetto JSON emitter (see trace_export.mli).

   Event vocabulary used (trace-event format):
   - "M" metadata events name each process (one per invocation) and its
     AGU/CU threads;
   - "X" complete events: one 1-cycle slice per retired channel event,
     tid 1 = AGU, tid 2 = CU;
   - "C" counter events: channel/queue depth tracks from the engine's
     on-change samples.

   Everything is emitted in a fixed order (invocations ascending; within
   one invocation: metadata, AGU slices, CU slices, depth samples in
   recorded order), so the document is byte-stable across runs and across
   runner domain counts. *)

type emitter = { buf : Buffer.t; mutable first : bool }

let event em fmt =
  if em.first then em.first <- false else Buffer.add_string em.buf ",\n";
  Buffer.add_string em.buf "    ";
  Printf.ksprintf (Buffer.add_string em.buf) fmt

let metadata em ~pid ~tid ~kind ~name =
  event em
    {|{ "name": "%s", "ph": "M", "pid": %d, "tid": %d, "args": { "name": "%s" } }|}
    kind pid tid (Json.escape name)

let slices em ~pid ~tid (tr : Trace.unit_trace) (retire : int array) =
  for k = 0 to Trace.length tr - 1 do
    if retire.(k) >= 0 then
      event em
        {|{ "name": "%s", "cat": "i%d", "ph": "X", "ts": %d, "dur": 1, "pid": %d, "tid": %d }|}
        (Json.escape (Fmt.str "%a" (fun ppf -> Trace.pp_event tr ppf) k))
        (Trace.iter tr k) retire.(k) pid tid
  done

let counters em ~pid (samples : (int * string * int) array) =
  Array.iter
    (fun (t, chan, depth) ->
      event em
        {|{ "name": "%s", "ph": "C", "ts": %d, "pid": %d, "args": { "depth": %d } }|}
        (Json.escape chan) t pid depth)
    samples

let export buf ~kernel (r : Machine.result) =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let arch = Machine.arch_name r.Machine.arch in
  p "{\n";
  p "  \"schema\": \"dae-trace/1\",\n";
  p "  \"kernel\": \"%s\",\n" (Json.escape kernel);
  p "  \"arch\": \"%s\",\n" (Json.escape arch);
  p "  \"cycles\": %d,\n" r.Machine.cycles;
  p "  \"displayTimeUnit\": \"ns\",\n";
  (* the stall attribution rides along so a trace file is self-describing *)
  p "  \"stats\": {\n";
  List.iteri
    (fun i (unit, c) ->
      p "    \"%s\": { %s }%s\n" (Json.escape unit)
        (String.concat ", "
           (List.map
              (fun (cause, n) -> Printf.sprintf "\"%s\": %d" cause n)
              (Stats.to_list c)))
        (if i = List.length r.Machine.stats - 1 then "" else ","))
    r.Machine.stats;
  p "  },\n";
  p "  \"traceEvents\": [\n";
  let em = { buf; first = true } in
  List.iter
    (fun (tl : Machine.timeline) ->
      let pid = tl.Machine.t_invocation in
      metadata em ~pid ~tid:0 ~kind:"process_name"
        ~name:(Printf.sprintf "%s/%s inv%d" kernel arch pid);
      metadata em ~pid ~tid:1 ~kind:"thread_name" ~name:"AGU";
      metadata em ~pid ~tid:2 ~kind:"thread_name" ~name:"CU";
      slices em ~pid ~tid:1 tl.Machine.t_agu tl.Machine.t_timing.Timing.agu_retire;
      slices em ~pid ~tid:2 tl.Machine.t_cu tl.Machine.t_timing.Timing.cu_retire;
      counters em ~pid tl.Machine.t_timing.Timing.depth_samples)
    r.Machine.timelines;
  p "\n  ]\n}\n"

let to_string ~kernel r =
  let buf = Buffer.create 65536 in
  export buf ~kernel r;
  Buffer.contents buf

let write_file ~path ~kernel r =
  let s = to_string ~kernel r in
  if path = "-" then print_string s
  else begin
    let oc = open_out path in
    output_string oc s;
    close_out oc
  end
