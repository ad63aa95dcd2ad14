(* The repository benchmark: the paper's Table-1 pairs through both
   checking paradigms, and a mixed load on the checker service.

     perfbench/main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads:
     table1-default  Table-1 pairs through [Qcec.check] with default
                     strategy, core and scheme (the paper's DD column);
     table1-zx       the same pairs with [~strategy:Zx] (the ZX column);
     serve-mixed     two closed-loop clients driving an [oqec serve]
                     daemon with cold, cached and fresh resubmissions.

   Every line before the last is a record: one JSON object per pair
   ([pair]) and one for the run ([record]: host, seed, time limit, tail
   percentile and every end-to-end figure, [failed_ratio] and
   [wrong_verdicts] included).  The last line is the result:
   [{"correct", "attempted", "failed", "metrics"}], with the end-to-end
   metrics when [--trace 0] and the per-layer metrics when [--trace 1].

   Each layer is timed from outside, around calls to its public
   functions; the traced run checks every pair a second time untraced,
   alternating which goes first, and reports the gap as
   [trace.overhead_ratio].  [flatten.align_s] times a call of its own
   to [Flatten.align] on the parsed pair, the function each checker
   calls inside [Qcec.check]; the ratio leaves that call out, and the
   checkers' own aligns fall in [engine.unattributed_s].  Run from the
   repository root after [dune build perfbench/main.exe
   bin/oqec_cli.exe]; [perfbench/run.sh] does both. *)

open Oqec_base
open Oqec_qcec
open Perfbench
module Qasm = Oqec_qasm.Qasm

(* ------------------------------------------------------------ arguments *)

type args = { workload : string; seed : int; seconds : int; trace : bool }

let usage () =
  prerr_endline
    "usage: main.exe --workload table1-default|table1-zx|serve-mixed --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((flag, value) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let args =
    {
      workload = get "--workload";
      seed = int "--seed";
      seconds = int "--seconds";
      trace = (match get "--trace" with "0" -> false | "1" -> true | _ -> usage ());
    }
  in
  if args.seconds < 1 then usage ();
  args

(* ----------------------------------------------------------- host record *)

let commit () =
  let from_git =
    if Sys.file_exists ".git" then
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let line = In_channel.input_line ic in
      ignore (Unix.close_process_in ic);
      line
    else None
  in
  match from_git with
  | Some c -> c
  | None ->
      (* A checkout without history: identify the sources instead. *)
      let files dir =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
        |> List.map (Filename.concat dir)
      in
      let dirs =
        "bin"
        :: (Sys.readdir "lib" |> Array.to_list |> List.map (Filename.concat "lib")
           |> List.filter Sys.is_directory)
      in
      let all = List.sort compare (List.concat_map files dirs) in
      let digest = Digest.string (String.concat "" (List.map Digest.file all)) in
      "src-md5:" ^ Digest.to_hex digest

(* Numbers keep all their digits, which [Jsonv.to_string] (%g) would
   round to six. *)
let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Jsonv.escape k ^ ":" ^ v) fields) ^ "}"

let str s = Jsonv.escape s

(* ---------------------------------------------------------------- rows *)

(* One answer of the system to one pair. *)
type row = {
  pair : Pairs.pair;
  kind : string;  (** ["one-shot"], or the service request kind *)
  result : Stats.result;
  line : string;  (** verdict line, or the error *)
  latency : float;  (** seconds from handing over the QASM text to the verdict *)
}

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* Which paradigm answered, read off the verdict line: the combined
   strategy refutes in its simulation screen (the line carries the
   refuting stimulus) or in the DD phase. *)
let decided_by line =
  if contains line "via zx-calculus" then "zx"
  else if contains line "(stimulus #" then "screen"
  else if contains line " via " then "dd"
  else "-"

let outcome_of_string = function
  | "equivalent" -> Some Equivalence.Equivalent
  | "not equivalent" -> Some Equivalence.Not_equivalent
  | "no information" -> Some Equivalence.No_information
  | "timeout" -> Some Equivalence.Timed_out
  | _ -> None

let result_to_string = function
  | Stats.Verdict o -> Equivalence.outcome_to_string o
  | Stats.Error code -> "error:" ^ code
  | Stats.Refused code -> "refused:" ^ code

let print_row r =
  let equivalent = Pairs.expected_equivalent r.pair.Pairs.variant in
  print_endline
    (json_obj
       [
         ("pair", str r.pair.Pairs.name);
         ("kind", str r.kind);
         ("expected", str (if equivalent then "equivalent" else "not equivalent"));
         ("outcome", str (result_to_string r.result));
         ("decided", str (decided_by r.line));
         ("latency_s", json_num r.latency);
         ("ok", string_of_bool (Stats.acceptable ~equivalent r.result));
       ])

let is_verdict r =
  match r.result with
  | Stats.Verdict
      (Equivalence.Equivalent | Equivalence.Not_equivalent | Equivalence.No_information) ->
      true
  | Stats.Verdict Equivalence.Timed_out | Stats.Error _ | Stats.Refused _ -> false

(* Each answer with the pair's known answer, as [Stats] judges them. *)
let judged rows =
  List.map (fun r -> (Pairs.expected_equivalent r.pair.Pairs.variant, r.result)) rows

(* -------------------------------------------------------- layer metrics *)

let zx_rules =
  [
    "spider-fusion";
    "id-removal";
    "pauli-leaf";
    "local-complement";
    "pivot";
    "pivot-boundary";
    "pivot-gadget";
    "gadget-fusion";
  ]

let error_codes =
  [
    "parse";
    "bad-request";
    "unknown-method";
    "over-budget";
    "over-capacity";
    "deadline";
    "shutting-down";
    "internal";
  ]

(* Every per-layer metric with its unit, in output order.  A traced run
   prints all of them; a layer a workload does not use reads 0. *)
let per_layer =
  [
    ("qasm.parse_s", "s");
    ("qasm.mb_per_s", "MB/s");
    ("flatten.align_s", "s");
    ("engine.check_s", "s");
    ("engine.unattributed_s", "s");
    ("sim.screen_s", "s");
    ("sim.screen_wasted_s", "s");
    ("sim.stimuli", "count");
    ("sim.refute_ratio", "ratio");
    ("dd.build_miter_s", "s");
    ("dd.conclude_s", "s");
    ("dd.gates_applied", "count");
    ("dd.nodes_allocated", "count");
    ("dd.peak_live", "count");
    ("dd.gc_runs", "count");
    ("dd.gc_reclaimed", "count");
    ("dd.mm.hit_ratio", "ratio");
    ("dd.mm.overwrites", "count");
    ("dd.mv.hit_ratio", "ratio");
    ("dd.add.hit_ratio", "ratio");
    ("dd.ctable_entries", "count");
    ("zx.build_miter_s", "s");
    ("zx.full_reduce_s", "s");
    ("zx.rewrites", "count");
  ]
  @ List.map (fun r -> ("zx.rewrites." ^ r, "count")) zx_rules
  @ [
      ("zx.spiders_peak", "count");
      ("gc.minor_words", "count");
      ("gc.major_words", "count");
      ("gc.major_collections", "count");
      ("serve.wait_s", "s");
      ("serve.process_s", "s");
      ("serve.cache.hit_ratio", "ratio");
      ("serve.cache.evict", "count");
      ("serve.dd.resident_nodes", "count");
      ("serve.dd.sweeps", "count");
    ]
  @ List.map (fun c -> ("serve.errors." ^ c, "count")) error_codes
  @ [ ("serve.verdict_line_mismatch", "count"); ("trace.overhead_ratio", "ratio") ]

(* Sums (and a few maxima) of layer figures over a run's pairs. *)
let layers : (string, float) Hashtbl.t = Hashtbl.create 64

let get k = Option.value (Hashtbl.find_opt layers k) ~default:0.0
let add k v = Hashtbl.replace layers k (get k +. v)
let keep_max k v = Hashtbl.replace layers k (Float.max (get k) v)
let set k v = Hashtbl.replace layers k v

(* Time [f] into layer metric [key], with the OCaml runtime's allocation
   and collection deltas around it. *)
let timed key f =
  let s0 = Gc.quick_stat () in
  let t0 = Mclock.now () in
  let x = f () in
  add key (Mclock.elapsed_since t0);
  let s1 = Gc.quick_stat () in
  add "gc.minor_words" (s1.Gc.minor_words -. s0.Gc.minor_words);
  add "gc.major_words" (s1.Gc.major_words -. s0.Gc.major_words);
  add "gc.major_collections"
    (float_of_int (s1.Gc.major_collections - s0.Gc.major_collections));
  x

let ratio num den = if den > 0.0 then num /. den else 0.0

(* Fold one traced check into the layer sums: its spans by category and
   name, its engine counters and its DD package statistics. *)
let record_check sink (r : Equivalence.report) =
  let screen = ref None in
  List.iter
    (function
      | Engine.Trace.Span { name; cat; dur_ns; _ } -> (
          let s = Int64.to_float dur_ns /. 1e9 in
          match (cat, name) with
          | "sim", "screen" -> screen := Some s
          | "dd", "build-miter" -> add "dd.build_miter_s" s
          | "dd", "conclude" -> add "dd.conclude_s" s
          | "zx", "build-miter" -> add "zx.build_miter_s" s
          | "zx", "full-reduce" -> add "zx.full_reduce_s" s
          | _ -> ())
      | Engine.Trace.Count _ -> ())
    (Engine.Trace.events sink);
  (match !screen with
  | None -> ()
  | Some s ->
      add "sim.screen_s" s;
      add "sim.screens" 1.0;
      if decided_by (Equivalence.verdict_line r) = "screen" then add "sim.refuted" 1.0
      else add "sim.screen_wasted_s" s);
  List.iter
    (fun (e : Equivalence.engine_stats) ->
      List.iter
        (fun (k, v) ->
          let v = float_of_int v in
          match k with
          | "dd.gates_applied" | "sim.stimuli" -> add k v
          | "zx.spiders.peak" -> keep_max "zx.spiders_peak" v
          | _ when String.starts_with ~prefix:"zx.rewrites." k ->
              add "zx.rewrites" v;
              if List.mem k (List.map (fun r -> "zx.rewrites." ^ r) zx_rules) then add k v
          | _ -> ())
        e.Equivalence.counters)
    r.Equivalence.engine_stats;
  match Equivalence.dd_stats r with
  | None -> ()
  | Some st ->
      let cache name (c : Oqec_dd.Ccache.stats) =
        add (name ^ ".hits") (float_of_int c.Oqec_dd.Ccache.s_hits);
        add (name ^ ".lookups") (float_of_int (c.s_hits + c.s_misses))
      in
      add "dd.nodes_allocated" (float_of_int st.Oqec_dd.Dd.allocated);
      keep_max "dd.peak_live" (float_of_int st.peak_live);
      add "dd.gc_runs" (float_of_int st.gc_runs);
      add "dd.gc_reclaimed" (float_of_int st.gc_reclaimed);
      cache "dd.mm" st.mm;
      add "dd.mm.overwrites" (float_of_int st.mm.Oqec_dd.Ccache.s_overwrites);
      cache "dd.mv" st.mv;
      cache "dd.add" st.add_;
      add "dd.ctable_entries" (float_of_int st.ctable_entries)

(* Ratios and remainders, once every pair is in. *)
let finish_layers () =
  set "qasm.mb_per_s" (ratio (get "qasm.bytes" /. 1e6) (get "qasm.parse_s"));
  set "sim.refute_ratio" (ratio (get "sim.refuted") (get "sim.screens"));
  List.iter
    (fun c -> set (c ^ ".hit_ratio") (ratio (get (c ^ ".hits")) (get (c ^ ".lookups"))))
    [ "dd.mm"; "dd.mv"; "dd.add" ];
  set "engine.unattributed_s"
    (get "engine.check_s" -. get "sim.screen_s" -. get "dd.build_miter_s"
   -. get "dd.conclude_s" -. get "zx.build_miter_s" -. get "zx.full_reduce_s")

(* ------------------------------------------------------------- checking *)

(* The time limit of a Table-1 check.  The combined strategy's screen
   slice is [min 5 s (limit/10)], so any limit of 50 s or more gives it
   the slice a default [oqec check] gets. *)
let time_limit = 60.0

let parse_error_code = function
  | Qasm.Parse_error _ | Failure _ -> "parse"
  | _ -> "internal"

(* Each check starts from a collected heap, outside its timing, as a
   fresh [oqec check] process would: no check pays for the garbage of
   the one before, and the peak resident set is that of the largest
   check rather than of the order they ran in. *)
let one_shot ~strategy ~timeout pair =
  Gc.full_major ();
  let t0 = Mclock.now () in
  let result, line =
    match
      let g = Qasm.circuit_of_string pair.Pairs.left in
      let g' = Qasm.circuit_of_string pair.Pairs.right in
      Qcec.check ~strategy ~timeout g g'
    with
    | r -> (Stats.Verdict r.Equivalence.outcome, Equivalence.verdict_line r)
    | exception e -> (Stats.Error (parse_error_code e), Printexc.to_string e)
  in
  { pair; kind = "one-shot"; result; line; latency = Mclock.elapsed_since t0 }

(* The same path as [one_shot], with every layer call timed and the
   engine's spans collected.  The align is a call of its own, made only
   to time the layer: [Qcec.check] aligns the pair again inside. *)
let traced ~strategy ~timeout pair =
  Gc.full_major ();
  let t0 = Mclock.now () in
  let result, line =
    match
      let g = timed "qasm.parse_s" (fun () -> Qasm.circuit_of_string pair.Pairs.left) in
      let g' = timed "qasm.parse_s" (fun () -> Qasm.circuit_of_string pair.Pairs.right) in
      add "qasm.bytes" (float_of_int (String.length pair.left + String.length pair.right));
      ignore (timed "flatten.align_s" (fun () -> Flatten.align g g'));
      let sink = Engine.Trace.create () in
      let r = timed "engine.check_s" (fun () -> Qcec.check ~strategy ~timeout ~sink g g') in
      record_check sink r;
      r
    with
    | r -> (Stats.Verdict r.Equivalence.outcome, Equivalence.verdict_line r)
    | exception e -> (Stats.Error (parse_error_code e), Printexc.to_string e)
  in
  { pair; kind = "traced"; result; line; latency = Mclock.elapsed_since t0 }

(* A 2-core host's speed can wander by a quarter from one half second to
   the next, which a check of a few milliseconds feels in full.  So every
   pair shorter than [rep_budget_s] is checked again, in further rounds
   over the pass (which spreads its runs over the whole run), until its
   runs add up to that budget or it has [max_reps]; its latency is the
   median of its runs.  Returns each pair's row and all its runs, every
   one of which is checked for correctness. *)
let rep_budget_s = 0.25
let max_reps = 5

let measured_pass ~strategy ~timeout pairs =
  let pairs = Array.of_list pairs in
  let runs = Array.map (fun p -> [ one_shot ~strategy ~timeout p ]) pairs in
  let wants rs =
    List.length rs < max_reps
    && List.fold_left (fun acc r -> acc +. r.latency) 0.0 rs < rep_budget_s
  in
  for _ = 2 to max_reps do
    Array.iteri
      (fun i rs -> if wants rs then runs.(i) <- one_shot ~strategy ~timeout pairs.(i) :: rs)
      runs
  done;
  Array.to_list
    (Array.map
       (fun rs ->
         let latency = Stats.median (List.map (fun r -> r.latency) rs) in
         ({ (List.hd rs) with latency }, rs))
       runs)

(* Each pair untraced and traced, alternating which runs first so that
   warming favours neither; returns the untraced rows (the answers a
   user gets) followed by the traced ones. *)
let traced_pass ~strategy ~timeout pairs =
  let align_before = get "flatten.align_s" in
  let both =
    List.mapi
      (fun i p ->
        if i mod 2 = 0 then
          let u = one_shot ~strategy ~timeout p in
          (u, traced ~strategy ~timeout p)
        else
          let t = traced ~strategy ~timeout p in
          (one_shot ~strategy ~timeout p, t))
      pairs
  in
  let sum rows = List.fold_left (fun acc r -> acc +. r.latency) 0.0 rows in
  let untraced = List.map fst both and traced = List.map snd both in
  (* The traced path's own align is extra work, not tracing. *)
  let extra_align = get "flatten.align_s" -. align_before in
  set "trace.overhead_ratio" (((sum traced -. extra_align) /. sum untraced) -. 1.0);
  (untraced, traced)

(* ---------------------------------------------------------------- setup *)

(* Set-up runs [setup_repeats] times and its median is reported: one
   set-up of the service workload is a daemon boot of a few tens of
   milliseconds, which a busy host can double.  [gen] returns the inputs
   and a resource ([release]d, untimed, before the next repetition); the
   inputs must come out identical every time, since the same seed gives
   the same inputs. *)
let setup_repeats = 9

let repeated_setup ~release gen =
  let rec go k times prev =
    Option.iter (fun (_, res) -> release res) prev;
    let t0 = Mclock.now () in
    let inputs, res = gen () in
    let times = Mclock.elapsed_since t0 :: times in
    (match prev with
    | Some (p, _) when p <> inputs ->
        release res;
        prerr_endline "set-up is not deterministic for a fixed seed";
        exit 1
    | _ -> ());
    if k >= setup_repeats then (Stats.median times, inputs, res)
    else go (k + 1) times (Some (inputs, res))
  in
  go 1 [] None

(* The [pass]-th copy of a workload's inputs; copy 0 uses the seed
   itself. *)
let sub_seed seed pass = seed + (pass * 1_000_003)

(* A run checks whole passes: the rows differ in cost by three orders of
   magnitude, so a run cut off mid-pass would measure a pair mix that
   depends on the program's speed.  [seconds] sets how many passes, at
   [pass_s] seconds each as measured on a 2-core host. *)
let passes ~seconds ~pass_s = max 1 (int_of_float (float_of_int seconds /. pass_s))

let generate ~keep ~seed n =
  List.concat (List.init n (fun i -> Pairs.table1 ~keep ~seed:(sub_seed seed i) ()))

(* ------------------------------------------------------------- results *)

let vm_hwm_mb_of_status path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      List.find_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ ->
                  Option.map (fun k -> float_of_int k /. 1024.0) (int_of_string_opt kb)
              | [] -> None)
          | _ -> None)
        (String.split_on_char '\n' text)

type summary = {
  answers : row list;
      (** the answers end-to-end figures come from: untraced, in schedule
          order *)
  checked : row list;  (** every answer of the run, all checked for correctness *)
  wall : float;
      (** seconds the answers took: the closed loop's wall time, or the
          sum of the one-shot latencies *)
  setup_s : float;
  peak_rss_mb : float;
  tail_of : int;  (** answers in one pass: fixes the tail percentile *)
  time_limit_s : float;
  extra : (string * string) list;  (** workload-specific record fields *)
}

let metric (name, value, unit) =
  (name, json_obj [ ("value", json_num value); ("unit", str unit) ])

let emit args s =
  List.iter print_row s.checked;
  let sorted = Stats.sorted_of_list (List.map (fun r -> r.latency) s.answers) in
  let tail_p = Option.value (Stats.tail_percentile s.tail_of) ~default:50.0 in
  let verdicts = List.length (List.filter is_verdict s.answers) in
  let attempted = List.length s.checked in
  let judged = judged s.checked in
  let failed = Stats.failed judged and wrong = Stats.wrong_verdicts judged in
  let e2e =
    [
      ("setup_s", s.setup_s, "s");
      ("pairs_per_s", float_of_int verdicts /. s.wall, "1/s");
      ("verdict_p50_s", Stats.percentile sorted 50.0, "s");
      ("verdict_tail_s", Stats.percentile sorted tail_p, "s");
      ("peak_rss_mb", s.peak_rss_mb, "MB");
    ]
  in
  (* Recorded but not in the result, since a good run reads 0 on both:
     they reach it as [failed] and [correct]. *)
  let recorded =
    [
      ("failed_ratio", Stats.failed_ratio judged, "ratio");
      ("wrong_verdicts", float_of_int wrong, "count");
    ]
  in
  let host =
    json_obj
      [
        ("cores", string_of_int (Domain.recommended_domain_count ()));
        ("ocaml", str Sys.ocaml_version);
        ("commit", str (commit ()));
      ]
  in
  print_endline
    (json_obj
       ([
          ("record", str args.workload);
          ("host", host);
          ("seed", string_of_int args.seed);
          ("seconds", string_of_int args.seconds);
          ("trace", string_of_bool args.trace);
          ("time_limit_s", json_num s.time_limit_s);
          ("tail_percentile", json_num tail_p);
          ("attempted", string_of_int attempted);
          ("wall_s", json_num s.wall);
          ( "end_to_end",
            json_obj (List.map metric ((if args.trace then [] else e2e) @ recorded)) );
        ]
       @ s.extra));
  let metrics =
    if args.trace then begin
      finish_layers ();
      List.map (fun (k, unit) -> metric (k, get k, unit)) per_layer
    end
    else List.map metric e2e
  in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (wrong = 0));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_obj metrics);
       ])

(* ------------------------------------------------------ Table-1 workloads *)

(* Pairs left out so that a run stays within its time budget.  Under the
   default strategy compiled qwalk-6's flipped-CNOT pair takes 14 s to
   50 s depending on the layout, its missing-gate pair 5 s to 26 s and
   its equivalent pair 8 s.  ZX rewriting of the faulty optimised
   plus21mod256 pair runs for 22 s before it gets stuck, and that of the
   faulty qwalk-6 pairs for 1 s to 11 s. *)
let in_table1_default half row _ = not (half = Pairs.Compiled && row = "qwalk-6")

let in_table1_zx half row variant =
  variant = Pairs.Equivalent
  || not
       (List.mem (half, row)
          [
            (Pairs.Compiled, "qwalk-6");
            (Pairs.Optimized, "plus21mod256");
            (Pairs.Optimized, "qwalk-6");
          ])

let peak_rss_self () =
  match Meminfo.vm_hwm_kb () with Some kb -> float_of_int kb /. 1024.0 | None -> 0.0

let table1 args ~strategy ~keep ~pass_s =
  let n = passes ~seconds:args.seconds ~pass_s in
  let setup_s, pairs, () =
    repeated_setup ~release:ignore (fun () -> (generate ~keep ~seed:args.seed n, ()))
  in
  let answers, checked =
    if args.trace then
      let untraced, traced = traced_pass ~strategy ~timeout:time_limit pairs in
      (untraced, untraced @ traced)
    else
      let measured = measured_pass ~strategy ~timeout:time_limit pairs in
      (List.map fst measured, List.concat_map snd measured)
  in
  {
    answers;
    checked;
    wall = List.fold_left (fun acc r -> acc +. r.latency) 0.0 answers;
    setup_s;
    peak_rss_mb = peak_rss_self ();
    tail_of = List.length pairs / n;
    time_limit_s = time_limit;
    extra = [ ("passes", string_of_int n); ("pairs", string_of_int (List.length pairs)) ];
  }

(* ------------------------------------------------------- serve workload *)

let daemon_exe = "_build/default/bin/oqec_cli.exe"
let run_dir = ".perfbench"

(* Requests carry no timeout, as [oqec client] sends them, so the daemon
   applies its default deadline. *)
let serve_limit =
  Option.value Oqec_serve.Server.default_config.Oqec_serve.Server.default_timeout
    ~default:time_limit

type kind = Cold | Hit | Fresh

let kind_to_string = function Cold -> "cold" | Hit -> "hit" | Fresh -> "fresh"

type request = { idx : int; pair_ix : int; kind : kind }

(* The seeded traffic: every pair once cold, then once as an exact
   resubmission and once with [fresh:true] in a seeded order, and all
   pairs' sequences merged at random.  Equal shares of the three kinds
   are an assumption: no record of the service's real traffic says how
   often clients resubmit or ask for a fresh check. *)
let resubmissions = [ Hit; Fresh ]

let schedule ~seed npairs =
  let rng = Rng.make ~seed in
  let shuffle l =
    List.map snd (List.sort compare (List.map (fun x -> (Rng.bits64 rng, x)) l))
  in
  let seqs =
    Array.init npairs (fun p ->
        List.map (fun kind -> (p, kind)) (Cold :: shuffle resubmissions))
  in
  let rec merge live acc =
    match live with
    | [] -> List.rev acc
    | _ -> (
        let p = List.nth live (Rng.int rng (List.length live)) in
        match seqs.(p) with
        | [ x ] -> merge (List.filter (( <> ) p) live) (x :: acc)
        | x :: rest ->
            seqs.(p) <- rest;
            merge live (x :: acc)
        | [] -> assert false)
  in
  List.mapi
    (fun idx (pair_ix, kind) -> { idx; pair_ix; kind })
    (merge (List.init npairs Fun.id) [])

(* A reply that does not come within this many seconds counts as an
   error, so a stuck daemon cannot hang the run.  It is longer than the
   daemon's deadline, which answers a slow request first. *)
let reply_timeout = serve_limit +. 60.0

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout;
      Some (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let field j k = Option.bind (Jsonv.member j k) Jsonv.to_str

(* One request-reply exchange on a fresh connection. *)
let ask socket line =
  match connect socket with
  | None -> None
  | Some (ic, oc) ->
      let reply =
        try
          send oc line;
          Option.map Jsonv.parse (In_channel.input_line ic)
        with Sys_error _ | Jsonv.Bad _ -> None
      in
      close_in_noerr ic;
      reply

type daemon = { pid : int; socket : string }

(* Ask the daemon to drain and exit, and wait for it; kill it if it has
   not gone within ten seconds. *)
let stop_daemon d =
  ignore (ask d.socket {|{"method":"shutdown"}|});
  let deadline = Mclock.now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Mclock.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ()

(* Boot a daemon with its default configuration and wait until it
   answers [ping]. *)
let start_daemon k =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let socket = Printf.sprintf "%s/serve-%d-%d.sock" run_dir (Unix.getpid ()) k in
  let log = Unix.openfile (run_dir ^ "/serve.log") [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid =
    Unix.create_process daemon_exe
      [| daemon_exe; "serve"; "--socket"; socket |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  let d = { pid; socket } in
  let deadline = Mclock.now () +. 30.0 in
  let rec ping () =
    match ask socket {|{"method":"ping"}|} with
    | Some j when field j "event" = Some "pong" -> d
    | _ when Mclock.now () > deadline ->
        stop_daemon d;
        prerr_endline "the daemon did not answer ping within 30 s";
        exit 1
    | _ ->
        Unix.sleepf 0.0005;
        ping ()
  in
  ping ()

(* One answered request, with the daemon's own figures for it. *)
type served = {
  req : request;
  row : row;
  cached : bool;
  elapsed : float option;  (** the daemon's seconds for the request *)
}

let counters_of j key =
  match Jsonv.member j key with
  | Some (Jsonv.Obj kv) ->
      List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Jsonv.to_num v)) kv
  | _ -> []

(* Send one request and read its events up to the verdict (and the
   [engine_stats] that follows it) or an error.  Events carrying another
   request's id, left over from a reply that timed out, are skipped. *)
let submit ic oc (pairs : Pairs.pair array) req =
  let p = pairs.(req.pair_ix) in
  let answer ?(cached = false) ?elapsed result line latency =
    let row = { pair = p; kind = kind_to_string req.kind; result; line; latency } in
    { req; row; cached; elapsed }
  in
  let id = string_of_int req.idx in
  let ours j = match field j "id" with Some i -> i = id | None -> true in
  let t0 = Mclock.now () in
  try
    send oc
      (json_obj
         ([
            ("method", str "submit");
            ("id", str id);
            ("left", str p.Pairs.left);
            ("right", str p.Pairs.right);
          ]
         @ if req.kind = Fresh then [ ("fresh", "true") ] else []));
    let rec next () =
      match In_channel.input_line ic with
      | None ->
          answer (Stats.Error "internal") "connection closed" (Mclock.elapsed_since t0)
      | Some l -> (
          let j = Jsonv.parse l in
          match field j "event" with
          | _ when not (ours j) -> next ()
          | Some "verdict" ->
              let latency = Mclock.elapsed_since t0 in
              let outcome =
                Option.value
                  (Option.bind (field j "outcome") outcome_of_string)
                  ~default:Equivalence.Timed_out
              in
              let rec stats () =
                match In_channel.input_line ic with
                | None -> None
                | Some l ->
                    let j = Jsonv.parse l in
                    if ours j && field j "event" = Some "engine_stats" then
                      Option.bind (Jsonv.member j "elapsed") Jsonv.to_num
                    else stats ()
              in
              let elapsed = stats () in
              answer
                ~cached:(Jsonv.member j "cached" = Some (Jsonv.Bool true))
                ?elapsed (Stats.Verdict outcome)
                (Option.value (field j "verdict") ~default:"")
                latency
          | Some "error" ->
              let code = Option.value (field j "code") ~default:"internal" in
              let r =
                if code = "over-capacity" || code = "shutting-down" then Stats.Refused code
                else Stats.Error code
              in
              let message = Option.value (field j "message") ~default:"" in
              answer r message (Mclock.elapsed_since t0)
          | _ -> next ())
    in
    next ()
  with (Sys_error _ | Jsonv.Bad _) as e ->
    answer (Stats.Error "internal") (Printexc.to_string e) (Mclock.elapsed_since t0)

(* The closed loop: [clients] connections, each sending its next request
   only after the previous one's verdict.  Requests leave the shared
   schedule in order, except that a resubmission waits until its pair's
   cold verdict is in and no pair has two requests in flight. *)
let closed_loop ~socket ~clients pairs reqs =
  let mu = Mutex.create () and cond = Condition.create () in
  let pending = ref reqs in
  let in_flight = Array.make (Array.length pairs) false in
  let cold_done = Array.make (Array.length pairs) false in
  let served = ref [] in
  let take () =
    Mutex.lock mu;
    let eligible r =
      (not in_flight.(r.pair_ix)) && (r.kind = Cold || cold_done.(r.pair_ix))
    in
    let rec pick () =
      match List.find_opt eligible !pending with
      | Some r ->
          pending := List.filter (fun x -> x.idx <> r.idx) !pending;
          in_flight.(r.pair_ix) <- true;
          Some r
      | None when !pending = [] -> None
      | None ->
          Condition.wait cond mu;
          pick ()
    in
    let r = pick () in
    Mutex.unlock mu;
    r
  in
  let finish s =
    Mutex.lock mu;
    in_flight.(s.req.pair_ix) <- false;
    if s.req.kind = Cold then cold_done.(s.req.pair_ix) <- true;
    served := s :: !served;
    Condition.broadcast cond;
    Mutex.unlock mu
  in
  let client () =
    match connect socket with
    | None -> prerr_endline "cannot connect to the daemon"
    | Some (ic, oc) ->
        let rec loop () =
          match take () with
          | None -> ()
          | Some req ->
              finish (submit ic oc pairs req);
              loop ()
        in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) loop
  in
  List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()));
  (* Requests no client could send count as errors. *)
  let unsent =
    List.map
      (fun req ->
        {
          req;
          row =
            { pair = pairs.(req.pair_ix); kind = kind_to_string req.kind;
              result = Stats.Error "internal"; line = "not sent"; latency = 0.0 };
          cached = false;
          elapsed = None;
        })
      !pending
  in
  List.sort (fun a b -> compare a.req.idx b.req.idx) (unsent @ !served)

(* Clients of the closed loop: one per core of the 2-core reference
   host, as many as the daemon's default pool has workers. *)
let clients = 2

(* [servers] holds each pass's daemon counters: counts add up over the
   passes, the resident store's size is the largest any reached. *)
let serve_layers served servers =
  List.iter
    (fun s ->
      (match (s.elapsed, s.row.result) with
      | Some e, Stats.Verdict _ ->
          add "serve.process_s" e;
          add "serve.wait_s" (s.row.latency -. e)
      | _ -> ());
      match s.row.result with
      | (Stats.Error code | Stats.Refused code) when List.mem code error_codes ->
          add ("serve.errors." ^ code) 1.0
      | Stats.Error _ | Stats.Refused _ | Stats.Verdict _ -> ())
    served;
  let sv k =
    List.map (fun server -> Option.value (List.assoc_opt k server) ~default:0.0) servers
  in
  let total k = List.fold_left ( +. ) 0.0 (sv k) in
  let hits = total "server.cache.hit" in
  set "serve.cache.hit_ratio" (ratio hits (hits +. total "server.cache.miss"));
  set "serve.cache.evict" (total "server.cache.evict");
  set "serve.dd.resident_nodes"
    (List.fold_left Float.max 0.0 (sv "server.dd.resident_nodes"));
  set "serve.dd.sweeps" (total "server.dd.sweeps")

(* The traced run replays the first pass's pairs one-shot under the
   daemon's deadline (every pass would not fit in a run): that gives the
   layer figures the daemon does not report, and the one-shot verdict
   line each of that pass's service answers is compared with.  The
   combined screen's wall-clock slice decides whether the screen or the
   DD phase refutes, so a service line can depend on load; the mismatch
   count shows it without failing the run. *)
let replay pairs served =
  let untraced, traced = traced_pass ~strategy:Qcec.Combined ~timeout:serve_limit pairs in
  (* Keyed by the pair itself: passes repeat names with other layouts. *)
  let line_of = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace line_of r.pair r.line) untraced;
  let mismatch s =
    match s.row.result with
    | Stats.Verdict _ -> Hashtbl.find_opt line_of s.row.pair <> Some s.row.line
    | Stats.Error _ | Stats.Refused _ -> false
  in
  set "serve.verdict_line_mismatch"
    (float_of_int (List.length (List.filter mismatch served)));
  untraced @ traced

let serve_mixed args =
  if not (Sys.file_exists daemon_exe) then begin
    prerr_endline ("missing " ^ daemon_exe ^ ": build it first (perfbench/run.sh does)");
    exit 2
  end;
  (* A daemon that dies mid-run must turn into error answers, not kill
     the benchmark with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let n = passes ~seconds:args.seconds ~pass_s:10.0 in
  let keep half row variant = half = Pairs.Compiled && in_table1_default half row variant in
  let boots = ref 0 in
  let boot () =
    incr boots;
    start_daemon !boots
  in
  let setup_s, pairs, first =
    repeated_setup ~release:stop_daemon (fun () ->
        (generate ~keep ~seed:args.seed n, boot ()))
  in
  (* Each pass is a closed loop of its own on a daemon of its own, the
     set-up's for the first: the peak resident set is the median of the
     passes' high-water marks rather than the largest overlap of one
     long run, and the time between passes (stopping one daemon, booting
     the next) is not counted. *)
  let per_pass = List.length pairs / n in
  let run_pass i daemon =
    let pass = Array.of_list (List.filteri (fun j _ -> j / per_pass = i) pairs) in
    let reqs = schedule ~seed:(sub_seed args.seed i) per_pass in
    Fun.protect
      ~finally:(fun () -> stop_daemon daemon)
      (fun () ->
        let t0 = Mclock.now () in
        let served = closed_loop ~socket:daemon.socket ~clients pass reqs in
        let wall = Mclock.elapsed_since t0 in
        let status = Printf.sprintf "/proc/%d/status" daemon.pid in
        let server =
          match ask daemon.socket {|{"method":"stats"}|} with
          | Some j -> counters_of j "server"
          | None -> []
        in
        (served, wall, Option.value (vm_hwm_mb_of_status status) ~default:0.0, server))
  in
  let results = List.init n (fun i -> run_pass i (if i = 0 then first else boot ())) in
  let served = List.concat_map (fun (s, _, _, _) -> s) results in
  let wall = List.fold_left (fun acc (_, w, _, _) -> acc +. w) 0.0 results in
  let peak_rss_mb = Stats.median (List.map (fun (_, _, m, _) -> m) results) in
  let answers = List.map (fun s -> s.row) served in
  let replayed =
    if args.trace then begin
      serve_layers served (List.map (fun (_, _, _, server) -> server) results);
      match results with
      | (first_served, _, _, _) :: _ ->
          replay (List.filteri (fun j _ -> j < per_pass) pairs) first_served
      | [] -> []
    end
    else []
  in
  {
    answers;
    checked = answers @ replayed;
    wall;
    setup_s;
    peak_rss_mb;
    tail_of = List.length served / n;
    time_limit_s = serve_limit;
    extra =
      [
        ("clients", string_of_int clients);
        ("pairs", string_of_int (List.length pairs));
        ("requests", string_of_int (List.length served));
        ( "cache_hits",
          string_of_int (List.length (List.filter (fun s -> s.cached) served)) );
      ];
  }

let () =
  let args = parse_args () in
  let summary =
    match args.workload with
    | "table1-default" ->
        table1 args ~strategy:Qcec.Combined ~keep:in_table1_default ~pass_s:40.0
    | "table1-zx" -> table1 args ~strategy:Qcec.Zx ~keep:in_table1_zx ~pass_s:15.0
    | "serve-mixed" -> serve_mixed args
    | _ -> usage ()
  in
  emit args summary
