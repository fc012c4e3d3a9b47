(* Tests for the benchmark at smoke size:

   - BENCHMARK.json and the metric catalog name the same metrics, units,
     directions and bounds, and the same workloads;
   - every run prints exactly those metrics with their units on its last
     line, and two same-seed runs agree on every exact metric;
   - the output checks have teeth: a planted insert wrapper that lies about
     its result trips the map check, and the planted early-reclaim
     pipeline mutant makes the crash matrix report failed images;
   - [compare]'s quartiles match Python's and its verdicts follow the
     gain / regression / unresolved rules. *)

open Respct_benchmark
module Json = Obs.Json

let main_exe = "../main.exe"
let benchmark_json = "../../BENCHMARK.json"

let member k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "missing key %S" k

let str = function Json.String s -> s | _ -> Alcotest.fail "expected a string"
let items = function Json.List l -> l | _ -> Alcotest.fail "expected a list"
let num j = Option.get (Json.to_float_opt j)

let check_strings = Alcotest.check (Alcotest.list Alcotest.string)
let check_float eps = Alcotest.check (Alcotest.float eps)
let check_floats eps = Alcotest.check (Alcotest.list (Alcotest.float eps))

let spec () =
  match Json.of_file benchmark_json with
  | Ok j -> j
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e

(* ---------------------------------------------------------------- *)
(* BENCHMARK.json <-> catalog *)

let test_catalog_matches_spec () =
  let j = spec () in
  let names l = List.map (fun e -> str (member "name" e)) (items l) in
  check_strings
    "workloads"
    (List.map (fun w -> w.Workloads.name) Workloads.all)
    (names (member "workloads" j));
  let check_metrics what entries catalog =
    check_strings
      (what ^ " names")
      (List.map (fun m -> m.Catalog.name) catalog)
      (names entries);
    List.iter2
      (fun e (m : Catalog.metric) ->
        Alcotest.(check string) (m.Catalog.name ^ " unit") m.Catalog.unit (str (member "unit" e));
        Alcotest.(check string)
          (m.Catalog.name ^ " better")
          (Catalog.string_of_better m.Catalog.better)
          (str (member "better" e));
        match m.Catalog.bound with
        | Some b -> check_float 0.0 (m.Catalog.name ^ " bound") b (num (member "bound" e))
        | None -> Alcotest.(check bool) (m.Catalog.name ^ " has no bound") true (Json.member "bound" e = None))
      (items entries) catalog
  in
  check_metrics "end_to_end" (member "end_to_end" j) Catalog.end_to_end;
  check_metrics "per_layer" (member "per_layer" j) Catalog.per_layer

(* ---------------------------------------------------------------- *)
(* Printed output *)

let run_main args =
  let ic = Unix.open_process_args_in main_exe (Array.of_list (main_exe :: args)) in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc
  in
  let out = lines [] in
  let status = Unix.close_process_in ic in
  Alcotest.(check bool) (String.concat " " args ^ " exits 0") true (status = Unix.WEXITED 0);
  match out with
  | last :: _ -> (
      match Json.of_string last with
      | Ok j -> j
      | Error e -> Alcotest.failf "last line is not JSON (%s): %s" e last)
  | [] -> Alcotest.fail "no output"

let check_printed ~what expected result =
  (match result with
  | Json.Obj fields ->
      check_strings
        (what ^ " keys")
        [ "correct"; "attempted"; "failed"; "metrics" ]
        (List.map fst fields)
  | _ -> Alcotest.fail "result is not an object");
  Alcotest.(check bool) (what ^ " correct") true (member "correct" result = Json.Bool true);
  Alcotest.(check bool) (what ^ " attempted >= 1") true (num (member "attempted" result) >= 1.0);
  let metrics = member "metrics" result in
  let printed = match metrics with Json.Obj f -> List.map fst f | _ -> [] in
  check_strings
    (what ^ " metric names")
    (List.map (fun e -> str (member "name" e)) expected)
    printed;
  List.iter
    (fun e ->
      let name = str (member "name" e) in
      Alcotest.(check string)
        (what ^ " " ^ name ^ " unit")
        (str (member "unit" e))
        (str (member "unit" (member name metrics))))
    expected

let smoke_args w = [ "run"; "--workload"; w; "--smoke"; "--seconds"; "0"; "--seed"; "3" ]

let test_printed_and_deterministic w () =
  let j = spec () in
  check_printed ~what:(w ^ " trace 0")
    (items (member "end_to_end" j))
    (run_main (smoke_args w @ [ "--trace"; "0" ]));
  let out = Filename.temp_file "benchmark-runs" ".json" in
  Sys.remove out;
  for _ = 1 to 2 do
    check_printed ~what:(w ^ " trace 1")
      (items (member "per_layer" j))
      (run_main (smoke_args w @ [ "--trace"; "1"; "--out"; out ]))
  done;
  let runs =
    match Runner.runs_of_file out with Ok r -> r | Error e -> Alcotest.fail e
  in
  Sys.remove out;
  match runs with
  | [ a; b ] ->
      List.iter
        (fun (m : Catalog.metric) ->
          if m.Catalog.exact then
            let v r = num (member "median" (member m.Catalog.name (member "metrics" r))) in
            check_float 0.0 (w ^ " same-seed " ^ m.Catalog.name) (v a) (v b))
        Catalog.all
  | _ -> Alcotest.fail "expected two recorded runs"

(* ---------------------------------------------------------------- *)
(* Output checks *)

let test_lying_insert_trips_map_check () =
  let cfg = Workloads.map_cfg Workloads.Smoke ~update_pct:50 ~crash:true in
  let honest = Workloads.run_map cfg ~seed:3 ~pass:Workloads.Plain in
  check_strings "honest run passes" [] honest.Workloads.errors;
  (* claims every insert added a key, including overwrites *)
  let lie (o : Pds.Ops.map) =
    {
      o with
      Pds.Ops.insert =
        (fun ~slot ~key ~value ->
          ignore (o.Pds.Ops.insert ~slot ~key ~value);
          true);
    }
  in
  let r = Workloads.run_map ~plant:lie cfg ~seed:3 ~pass:Workloads.Plain in
  Alcotest.(check bool) "lying insert caught" true (r.Workloads.errors <> []);
  check_float 0.0
    "failed_share" 1.0
    (List.assoc "failed_share" r.Workloads.values)

let test_early_reclaim_fails_crash_matrix () =
  let entry =
    Option.get
      (Crashtest.Scenarios.find "respct-map-pipeline-churn-mutant-earlyreclaim")
  in
  let scenario ~seed ~n_ops =
    entry.Crashtest.Scenarios.build ~sched_seed:seed ~mem_seed:seed ~pcso:true ~n_ops
  in
  let r = Workloads.run_crash ~scenario Workloads.Smoke ~seed:1 ~pass:Workloads.Plain in
  Alcotest.(check bool)
    "failed_share > 0" true
    (List.assoc "failed_share" r.Workloads.values > 0.0);
  Alcotest.(check bool) "run reported incorrect" true (r.Workloads.errors <> [])

(* ---------------------------------------------------------------- *)
(* compare *)

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Compare.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check_floats 1e-12 "1..10" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  (* statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0] *)
  let q1, q2, q3 = Compare.quartiles [ 3.0; 1.0; 2.0 ] in
  check_floats 1e-12 "three" [ 1.0; 2.0; 3.0 ] [ q1; q2; q3 ]

let test_verdicts () =
  let metric name = Option.get (Catalog.find name) in
  let sides vs = List.mapi (fun i value -> { Compare.seed = i; value }) vs in
  let ten base step = List.init 10 (fun i -> base +. (step *. float_of_int i)) in
  let verdict name p c =
    Compare.string_of_verdict (Compare.verdict (metric name) (sides p) (sides c))
  in
  let check = Alcotest.(check string) in
  check "clear gain" "gain" (verdict "host_ops_per_s" (ten 100.0 0.1) (ten 120.0 0.1));
  check "within bound" "no regression" (verdict "host_ops_per_s" (ten 100.0 0.1) (ten 97.0 0.1));
  check "regression" "REGRESSION" (verdict "host_ops_per_s" (ten 100.0 0.1) (ten 80.0 0.1));
  check "lower is better" "REGRESSION" (verdict "setup_s" (ten 1.0 0.001) (ten 1.5 0.001));
  check "noisy parent" "unresolved" (verdict "host_ops_per_s" (ten 50.0 10.0) (ten 80.0 10.0));
  check "sim identical" "identical" (verdict "sim_mops" (ten 7.0 0.5) (ten 7.0 0.5));
  check "sim changed" "CHANGED" (verdict "sim_mops" (ten 7.0 0.5) (ten 7.0 0.6))

let () =
  let workload w = Alcotest.test_case w `Slow (test_printed_and_deterministic w) in
  Alcotest.run "benchmark"
    [
      ("spec", [ Alcotest.test_case "catalog matches BENCHMARK.json" `Quick test_catalog_matches_spec ]);
      ("printed", List.map (fun w -> workload w.Workloads.name) Workloads.all);
      ( "checks",
        [
          Alcotest.test_case "lying insert trips the map check" `Quick
            test_lying_insert_trips_map_check;
          Alcotest.test_case "early-reclaim mutant fails the crash matrix" `Quick
            test_early_reclaim_fails_crash_matrix;
        ] );
      ( "compare",
        [
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "verdicts" `Quick test_verdicts;
        ] );
    ]
