(* The correctness gate: every point of every pass gets a verdict, and a
   failing point is reported by name.

   A point fails when it raises, fails its reference check, disagrees
   with a sampled cross-check, has a stall partition that does not sum to
   its cycle count, deadlocks at or above the sizing minimum, gets an
   analysis verdict other than the known answer, or — at the default seed
   — differs from the committed expectation in expected/<workload>.txt. *)

module Stats = Dae_sim.Stats

type t = {
  mutable verdicts : (string * Perfbench_lib.Arith.verdict) list;
  mutable lines : (string * string) list;
      (** per-point result lines, compared with the expectation and
          digested into the run's point digest *)
  mutable sim_cycles : int list;  (** cycles of completed simulation points *)
  stalls : (string * string, int) Hashtbl.t;
      (** (unit group, cause) -> cycles, summed over completed points *)
  mutable killed : int;
  mutable committed : int;
}

let create () =
  {
    verdicts = [];
    lines = [];
    sim_cycles = [];
    stalls = Hashtbl.create 32;
    killed = 0;
    committed = 0;
  }

let verdict g name v = g.verdicts <- (name, v) :: g.verdicts
let fail g name msg = verdict g name (Perfbench_lib.Arith.Failed msg)
let line g name l = g.lines <- (name, l) :: g.lines

let guard g name f =
  match f () with
  | v -> Some v
  | exception Dae_sim.Retime.Check_failed m ->
    fail g name ("golden check failed: " ^ m);
    None
  | exception e ->
    fail g name ("raised " ^ Printexc.to_string e);
    None

let stats_line (keyed : (string * (string * int) list) list) =
  String.concat ";"
    (List.map
       (fun (u, cs) ->
         u ^ ":"
         ^ String.concat ","
             (List.filter_map
                (fun (c, n) -> if n = 0 then None else Some (Printf.sprintf "%s=%d" c n))
                cs))
       keyed)

let digest s = Digest.to_hex (Digest.string s)

(* Every unit's causes must sum to the cycle count. *)
let partition_ok ~cycles keyed =
  List.for_all (fun (_, cs) -> List.fold_left (fun a (_, n) -> a + n) 0 cs = cycles) keyed

let export (keyed : Stats.keyed) =
  List.map
    (fun (u, t) ->
      (u, List.map (fun c -> (Stats.cause_name c, Stats.get t c)) Stats.all_causes))
    keyed

(* Units reported together: every extra access unit under AU, every
   per-array dependence unit under DU. *)
let unit_group u =
  if String.length u > 3 && String.sub u 0 3 = "DU:" then "DU"
  else if String.length u > 2 && String.sub u 0 2 = "AU" then "AU"
  else u

(* A completed simulation point, with its full exported partition.
   [line] (default true) records its result line for the expectation. *)
let sim ?(line = true) g name ~cycles ~killed ~committed ~stats =
  if line then
    g.lines <-
      ( name,
        Printf.sprintf "cycles:%d killed:%d committed:%d stalls:%s" cycles killed
          committed
          (digest (stats_line stats)) )
      :: g.lines;
  if not (partition_ok ~cycles stats) then
    fail g name "stall partition does not sum to the cycle count"
  else begin
    verdict g name Perfbench_lib.Arith.Completed;
    g.sim_cycles <- cycles :: g.sim_cycles;
    List.iter
      (fun (u, cs) ->
        List.iter
          (fun (c, n) ->
            let k = (unit_group u, c) in
            Hashtbl.replace g.stalls k (n + Option.value ~default:0 (Hashtbl.find_opt g.stalls k)))
          cs)
      stats;
    g.killed <- g.killed + killed;
    g.committed <- g.committed + committed
  end

(* --- the committed default-seed expectation ---------------------------------- *)

let expected_path workload = Filename.concat "perfbench/expected" (workload ^ ".txt")

let read_expected workload =
  let path = expected_path workload in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let tbl = Hashtbl.create 64 in
    (try
       while true do
         let l = input_line ic in
         match String.index_opt l ' ' with
         | Some i when l <> "" && l.[0] <> '#' ->
           Hashtbl.replace tbl (String.sub l 0 i)
             (String.sub l (i + 1) (String.length l - i - 1))
         | _ -> ()
       done
     with End_of_file -> close_in ic);
    Some tbl
  end

let write_expected workload lines =
  let oc = open_out (expected_path workload) in
  Printf.fprintf oc
    "# %s: per-point results at the default seed (seed 0). Regenerate with\n\
     # perfbench/run.sh --workload %s --seed 0 --record.\n"
    workload workload;
  List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) lines;
  close_out oc

(* Compare a pass's lines with the expectation; mismatches fail the
   point, and a missing or extra point fails too. *)
let check_expected g expected =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace seen k ();
      match Hashtbl.find_opt expected k with
      | None -> fail g k "no committed default-seed expectation"
      | Some e when e <> v ->
        fail g k (Printf.sprintf "differs from expectation: got %s, expected %s" v e)
      | Some _ -> ())
    g.lines;
  Hashtbl.iter
    (fun k _ -> if not (Hashtbl.mem seen k) then fail g k "expected point missing")
    expected

let sorted_lines g = List.sort compare g.lines
let point_digest g =
  digest (String.concat "\n" (List.map (fun (k, v) -> k ^ " " ^ v) (sorted_lines g)))

(* One verdict per point: a point is failed if any of its checks failed. *)
let points g =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (name, v) ->
      match (Hashtbl.find_opt tbl name, v) with
      | Some (Perfbench_lib.Arith.Failed _), _ -> ()
      | _ -> Hashtbl.replace tbl name v)
    (List.rev g.verdicts);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let failures g =
  List.filter_map
    (fun (n, v) -> match v with Perfbench_lib.Arith.Failed m -> Some (n, m) | _ -> None)
    (List.rev g.verdicts)
