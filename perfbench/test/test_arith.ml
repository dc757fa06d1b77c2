(* The benchmark's own arithmetic: the median, the tail-percentile
   rule, the geometric mean, gate tallies and span self times. *)

open Perfbench_lib

let close = Alcotest.float 1e-9
let ints a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

let test_median () =
  Alcotest.check close "odd" 3. (Arith.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even" 2.5 (Arith.median [ 4.; 1.; 3.; 2. ])

let test_geomean () =
  Alcotest.(check (option close)) "2,8" (Some 4.) (Arith.geomean [ 2.; 8. ]);
  Alcotest.(check (option close)) "1,10,100" (Some 10.) (Arith.geomean [ 1.; 10.; 100. ]);
  Alcotest.(check (option close)) "empty" None (Arith.geomean []);
  Alcotest.(check (option close)) "non-positive" None (Arith.geomean [ 3.; 0. ])

let tail = Alcotest.(option (triple close close int))

let test_tail () =
  (* 19 samples: the median (rank 10) has only 9 beyond it *)
  Alcotest.check tail "too few" None (Arith.tail (ints 1 19));
  (* 20 samples: p50 is rank 10, 10 beyond; p75 is rank 15, 5 beyond *)
  Alcotest.check tail "p50 of 20" (Some (50., 10., 20)) (Arith.tail (ints 1 20));
  (* 100 samples: p90 is rank 90 with 10 beyond; p95 has only 5 *)
  Alcotest.check tail "p90 of 100" (Some (90., 90., 100)) (Arith.tail (List.rev (ints 1 100)));
  (* 1000 samples: p99 is rank 990, 10 beyond; p99.9 has 1 *)
  Alcotest.check tail "p99 of 1000" (Some (99., 990., 1000)) (Arith.tail (ints 1 1000));
  Alcotest.check tail "p99.9 of 20000" (Some (99.9, 19980., 20000)) (Arith.tail (ints 1 20000))

let test_failed_frac () =
  let open Arith in
  let expected = deadlock_verdict ~at_or_above_min:false in
  let above = deadlock_verdict ~at_or_above_min:true in
  Alcotest.(check bool) "expected deadlock is not a failure" false (failed expected);
  Alcotest.(check bool) "deadlock above the minimum fails" true (failed above);
  Alcotest.check close "one of four" 0.25
    (failed_frac [ Completed; expected; above; Completed ]);
  Alcotest.check close "probes only" 0. (failed_frac [ expected; expected ]);
  Alcotest.check close "none" 0. (failed_frac [])

let span ?(weight = 1.) id parent name t0 t1 = { Arith.id; parent; name; t0; t1; weight }

let layer = Alcotest.(list (pair string (pair close int)))

let test_self_nested () =
  (* other [0,10] > plan [1,3], prepare [3,9] > check [4,5], check [6,8] *)
  let spans =
    [
      span 1 0 "other" 0. 10.;
      span 2 1 "plan" 1. 3.;
      span 3 1 "prepare" 3. 9.;
      span 4 3 "check" 4. 5.;
      span 5 3 "check" 6. 8.;
    ]
  in
  Alcotest.check layer "self times"
    [ ("check", (3., 2)); ("other", (2., 1)); ("plan", (2., 1)); ("prepare", (3., 1)) ]
    (Arith.by_layer spans);
  let total = List.fold_left (fun a (_, (t, _)) -> a +. t) 0. (Arith.by_layer spans) in
  Alcotest.check close "sums to the wall" 10. total

let test_self_pool () =
  (* a 2-domain pool [0,10] with jobs on both domains: domain A runs
     [0,6] and [6,9], domain B [0,8]; each job has a 2 s timing child *)
  let w = 0.5 in
  let spans =
    [
      span 1 0 "pool" 0. 10.;
      span ~weight:w 2 1 "sweep" 0. 6.;
      span ~weight:w 3 2 "timing" 1. 3.;
      span ~weight:w 4 1 "sweep" 6. 9.;
      span ~weight:w 5 4 "timing" 6. 8.;
      span ~weight:w 6 1 "sweep" 0. 8.;
      span ~weight:w 7 6 "timing" 2. 4.;
    ]
  in
  let by = Arith.by_layer spans in
  (* busy 17 domain-seconds over 2 domains: 8.5 s; idle 1.5 s *)
  Alcotest.check layer "domain-averaged"
    [ ("pool", (1.5, 1)); ("sweep", (5.5, 3)); ("timing", (3., 3)) ]
    by;
  Alcotest.check close "sums to the wall" 10.
    (List.fold_left (fun a (_, (t, _)) -> a +. t) 0. by)

let () =
  Alcotest.run "perfbench-arith"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "geometric mean" `Quick test_geomean;
          Alcotest.test_case "tail percentile rule" `Quick test_tail;
        ] );
      ("gate", [ Alcotest.test_case "failed_frac" `Quick test_failed_frac ]);
      ( "spans",
        [
          Alcotest.test_case "nested self time" `Quick test_self_nested;
          Alcotest.test_case "pool self time" `Quick test_self_pool;
        ] );
    ]
