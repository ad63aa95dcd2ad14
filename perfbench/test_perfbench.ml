(* Tests of the benchmark's own helpers: the tail-percentile rule, the
   failure and wrong-verdict counting, and the expected-verdict table. *)

open Perfbench
module E = Oqec_qcec.Equivalence

let percentile_interpolates () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-12)) "p0" 1.0 (Stats.percentile a 0.0);
  Alcotest.(check (float 1e-12)) "p50" 2.5 (Stats.percentile a 50.0);
  Alcotest.(check (float 1e-12)) "p100" 4.0 (Stats.percentile a 100.0);
  Alcotest.(check (float 1e-12)) "median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ])

let tail_rule_cases () =
  let check n expected =
    Alcotest.(check (option (float 0.0))) (Printf.sprintf "n=%d" n) expected
      (Stats.tail_percentile n)
  in
  (* One pass over the 57 Table-1 pairs: 11.4 beyond p80, 5.7 beyond p90. *)
  check 57 (Some 80.0);
  check 54 (Some 80.0);
  check 49 (Some 75.0);
  check 100 (Some 90.0);
  check 1000 (Some 99.0);
  check 20 (Some 50.0);
  check 19 None;
  check 0 None

(* Whatever the sample count, the chosen percentile leaves at least 10
   samples beyond it and the next rung up of the ladder would not. *)
let tail_rule_is_tight () =
  (* Samples beyond a percentile, times 1000, counted exactly. *)
  let beyond n q = n * (1000 - q) in
  for n = 20 to 5000 do
    match Stats.tail_percentile n with
    | None -> Alcotest.failf "n=%d: no percentile" n
    | Some p ->
        let q = int_of_float (Float.round (p *. 10.0)) in
        if beyond n q < 10_000 then Alcotest.failf "n=%d: fewer than 10 beyond p%g" n p;
        List.iter
          (fun r ->
            if r > q && beyond n r >= 10_000 then
              Alcotest.failf "n=%d: p%g also qualifies" n (float_of_int r /. 10.0))
          Stats.ladder_permille
  done

let failed_ratio_counts () =
  let results =
    [
      (true, Stats.Verdict E.Equivalent);
      (false, Stats.Verdict E.Not_equivalent);
      (false, Stats.Verdict E.No_information);
      (true, Stats.Verdict E.No_information);
      (true, Stats.Verdict E.Timed_out);
      (false, Stats.Error "parse");
      (true, Stats.Refused "over-capacity");
      (true, Stats.Verdict E.Not_equivalent);
    ]
  in
  (* Failed: No_information on an equivalent pair, the timeout, the
     error, the refusal and the wrong verdict. *)
  Alcotest.(check (float 1e-12)) "failed ratio" (5.0 /. 8.0) (Stats.failed_ratio results);
  Alcotest.(check int) "failed" 5 (Stats.failed results);
  Alcotest.(check int) "wrong verdicts" 1 (Stats.wrong_verdicts results);
  Alcotest.(check bool)
    "equivalent on a faulty pair is wrong" true
    (Stats.wrong ~equivalent:false (Stats.Verdict E.Equivalent))

let expected_table () =
  Alcotest.(check bool) "equivalent" true (Pairs.expected_equivalent Pairs.Equivalent);
  Alcotest.(check bool) "missing gate" false (Pairs.expected_equivalent Pairs.Missing_gate);
  Alcotest.(check bool) "flipped cnot" false (Pairs.expected_equivalent Pairs.Flipped_cnot)

(* Cheap rows of both halves: every generated pair gets the answer the
   table expects from the checker, and the inputs depend on the seed
   alone. *)
let cheap half row _ =
  List.mem (half, row)
    [
      (Pairs.Compiled, "ghz-16");
      (Pairs.Compiled, "graphstate-14");
      (Pairs.Optimized, "comparator-6");
      (Pairs.Optimized, "qft-8");
    ]

let pairs_match_table () =
  List.iter
    (fun seed ->
      let pairs = Pairs.table1 ~keep:cheap ~seed () in
      Alcotest.(check int) "4 rows, 3 variants" 12 (List.length pairs);
      List.iter
        (fun (p : Pairs.pair) ->
          let g = Oqec_qasm.Qasm.circuit_of_string p.left in
          let g' = Oqec_qasm.Qasm.circuit_of_string p.right in
          let r = Oqec_qcec.Qcec.check ~strategy:Oqec_qcec.Qcec.Alternating g g' in
          let expected =
            if Pairs.expected_equivalent p.variant then E.Equivalent else E.Not_equivalent
          in
          if r.E.outcome <> expected then
            Alcotest.failf "%s (seed %d): %s" p.name seed (E.outcome_to_string r.E.outcome))
        pairs)
    [ 1; 2 ]

let pairs_follow_seed () =
  let a = Pairs.table1 ~keep:cheap ~seed:3 () and b = Pairs.table1 ~keep:cheap ~seed:3 () in
  Alcotest.(check bool) "same seed, same inputs" true (a = b);
  let c = Pairs.table1 ~keep:cheap ~seed:4 () in
  Alcotest.(check bool) "another seed, other inputs" true (a <> c)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile interpolates" `Quick percentile_interpolates;
          Alcotest.test_case "tail rule cases" `Quick tail_rule_cases;
          Alcotest.test_case "tail rule leaves 10 beyond" `Quick tail_rule_is_tight;
          Alcotest.test_case "failed ratio counting" `Quick failed_ratio_counts;
        ] );
      ( "pairs",
        [
          Alcotest.test_case "expected-verdict table" `Quick expected_table;
          Alcotest.test_case "pairs match the table" `Quick pairs_match_table;
          Alcotest.test_case "inputs follow the seed" `Quick pairs_follow_seed;
        ] );
    ]
