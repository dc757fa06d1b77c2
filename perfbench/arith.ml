(* The benchmark's own arithmetic: the median, the geometric mean,
   the tail-percentile rule, gate tallies and span self times. Pure
   functions, pinned by test/test_arith.ml. *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Arith.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Geometric mean of positive samples; [None] when there are none (or one
   is not positive, which a cycle count never is). *)
let geomean xs =
  if xs = [] || List.exists (fun x -> x <= 0.) xs then None
  else
    let n = float_of_int (List.length xs) in
    Some (exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. n))

(* --- the tail-percentile rule ----------------------------------------------- *)

let tail_ladder = [ 50.; 75.; 90.; 95.; 99.; 99.9 ]
let tail_min_beyond = 10

(* Nearest-rank percentile: the sample at rank [ceil (p n / 100)] (less a
   hair, so 99.9 % of 20000 is rank 19980 despite 99.9's binary form). *)
let rank ~n p = max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)))

(* The highest ladder percentile that still has at least
   [tail_min_beyond] samples strictly beyond its rank, so a reported tail
   is never one or two outliers. Returns [(p, value, n)] — the sample
   count is part of the answer — or [None] when even the median has fewer
   than [tail_min_beyond] samples beyond it. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  List.fold_left
    (fun acc p ->
      let r = rank ~n p in
      if n - r >= tail_min_beyond then Some (p, a.(r - 1), n) else acc)
    None tail_ladder

(* --- gate tallies ------------------------------------------------------------ *)

type verdict =
  | Completed
  | Expected_deadlock
      (** a deadlock probe below the sizing minimum: a verdict, not a failure *)
  | Failed of string

(* A dynamic deadlock is expected only below the static sizing minimum;
   at or above it, it disproves the analyzer's deadlock-freedom proof. *)
let deadlock_verdict ~at_or_above_min =
  if at_or_above_min then
    Failed "deadlock at capacities at or above the sizing minimum"
  else Expected_deadlock

let failed = function Failed _ -> true | Completed | Expected_deadlock -> false

let failed_frac verdicts =
  match verdicts with
  | [] -> 0.
  | _ ->
    let f = List.length (List.filter failed verdicts) in
    float_of_int f /. float_of_int (List.length verdicts)

(* --- span self times --------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (** 0 for a top-level span *)
  name : string;  (** the layer the span is booked to *)
  t0 : float;
  t1 : float;
  weight : float;
      (** 1 on the calling domain; 1/d inside a d-domain pool job, so a
          parallel section books domain-averaged seconds and the layer
          self times still add up to the wall clock *)
}

let weighted s = s.weight *. (s.t1 -. s.t0)

(* Self time of every span: its weighted duration minus its direct
   children's weighted durations. Summed over a tree these telescope to
   the roots' weighted durations. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent (prev +. weighted s))
    spans;
  List.map
    (fun s ->
      let c = Option.value ~default:0. (Hashtbl.find_opt children s.id) in
      (s, weighted s -. c))
    spans

(* Self seconds and span counts per layer name, sorted by name. *)
let by_layer spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let t, c = Option.value ~default:(0., 0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (t +. self, c + 1))
    (self_times spans);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
