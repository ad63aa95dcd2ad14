(* Pure helpers of the benchmark: percentiles, the tail-percentile rule
   and verdict classification.  Kept apart from the runner so the test
   can check them without running a single check. *)

(** [percentile sorted p] is the [p]-th percentile (0 to 100) of an
    ascending array, interpolating linearly between closest ranks. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples"
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate rank in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted_of_list xs) 50.0

(* The ladder the tail percentile is picked from, in tenths of a
   percent so that the rule below is exact integer arithmetic. *)
let ladder_permille = [ 999; 990; 950; 900; 800; 750; 500 ]

(** [tail_percentile n] is the highest percentile of the ladder that
    still has at least 10 of [n] samples beyond it; [None] below 20
    samples, where not even the median qualifies. *)
let tail_percentile n =
  List.find_opt (fun q -> n * (1000 - q) >= 10_000) ladder_permille
  |> Option.map (fun q -> float_of_int q /. 10.0)

(** What the system returned for one pair. *)
type result =
  | Verdict of Oqec_qcec.Equivalence.outcome
  | Error of string  (** an exception, or a service [error] event, by code *)
  | Refused of string  (** admission control turned the request away *)

(** [acceptable ~equivalent r]: the result answers a pair whose known
    answer is [equivalent].  A timeout, an error or a refusal never
    does; [No_information] does only on a non-equivalent pair, where it
    is ZX's "strong indication" the paper marks with [*]. *)
let acceptable ~equivalent = function
  | Verdict Oqec_qcec.Equivalence.Equivalent -> equivalent
  | Verdict Oqec_qcec.Equivalence.Not_equivalent -> not equivalent
  | Verdict Oqec_qcec.Equivalence.No_information -> not equivalent
  | Verdict Oqec_qcec.Equivalence.Timed_out | Error _ | Refused _ -> false

(** [wrong ~equivalent r]: the result contradicts the known answer. *)
let wrong ~equivalent = function
  | Verdict Oqec_qcec.Equivalence.Equivalent -> not equivalent
  | Verdict Oqec_qcec.Equivalence.Not_equivalent -> equivalent
  | Verdict (Oqec_qcec.Equivalence.No_information | Oqec_qcec.Equivalence.Timed_out)
  | Error _ | Refused _ ->
      false

(** [failed results] counts, among [(equivalent, result)] pairs, those
    without an acceptable result. *)
let failed results =
  List.length (List.filter (fun (equivalent, r) -> not (acceptable ~equivalent r)) results)

(** [failed_ratio results] is [failed results] divided by the pairs
    attempted. *)
let failed_ratio results =
  match results with
  | [] -> invalid_arg "Stats.failed_ratio: nothing attempted"
  | _ -> float_of_int (failed results) /. float_of_int (List.length results)

(** [wrong_verdicts results] counts the results that contradict the
    known answer. *)
let wrong_verdicts results =
  List.length (List.filter (fun (equivalent, r) -> wrong ~equivalent r) results)
