(* Tests for the respct_experiments command line, run as a subprocess in a
   fresh temporary directory:

   - `perf --compare` reads its baseline and never writes over it: without
     --json it writes nothing, and a --json naming the baseline is refused
     with exit 2 before any measurement; a document `perf --json` wrote
     passes `perf --compare` on the next run, so the exact gate survives
     its own print and parse;
   - figure names are a closed set (cmdliner's usage error, exit 124);
   - an unwritable --json sink fails with exit 2 before any work;
   - `crashmatrix` runs one dimension and ignores no flag: two dimension
     flags, or the file grid with a flag it would not read, are usage
     errors; a --scenario prefix naming nothing in the chosen dimension
     exits 2 listing the ids it knows; --no-schedules holds in every
     dimension; --json adds one row per explored world and leaves the
     text as it was;
   - a refused run (crashmatrix, litmus or analyze with nothing valid to
     do) exits 2 and leaves no --json file behind;
   - `service` refuses a config it could not run as a usage error that
     names the field, before it runs anything. *)

let exe = Filename.concat (Sys.getcwd ()) "../bin/respct_experiments.exe"
let bench_baseline = Filename.concat (Sys.getcwd ()) "../BENCH_PR21.json"
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A fresh directory holding a copy of the committed baseline. *)
let with_dir f =
  let dir = Filename.temp_dir "respct-cli" "" in
  let copy = Filename.concat dir "baseline.json" in
  Out_channel.with_open_bin copy (fun oc ->
      Out_channel.output_string oc (read_file bench_baseline));
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir "baseline.json")

(* Run the executable in [dir]: (exit status, stdout, stderr). *)
let run dir args =
  let out = Filename.temp_file "respct-cli" ".out" in
  let err = Filename.temp_file "respct-cli" ".err" in
  let status =
    Sys.command
      (Printf.sprintf "cd %s && %s %s > %s 2> %s" (Filename.quote dir)
         (Filename.quote exe)
         (String.concat " " (List.map Filename.quote args))
         (Filename.quote out) (Filename.quote err))
  in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (status, o, e)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let check_untouched dir copy =
  Alcotest.(check string)
    "baseline byte-identical" (read_file bench_baseline)
    (read_file (Filename.concat dir copy));
  Alcotest.(check (list string))
    "nothing else written" [ copy ]
    (Array.to_list (Sys.readdir dir))

(* The smoke preset runs far fewer ops than the default-preset baseline,
   so an honest comparison fails. *)
let test_compare_reads_baseline () =
  with_dir (fun dir copy ->
      let status, out, _ =
        run dir [ "perf"; "--preset"; "smoke"; "--compare"; copy ]
      in
      Alcotest.(check int) "regression reported" 1 status;
      Alcotest.(check bool) "comparison printed" true
        (contains out "perf compare: FAIL");
      check_untouched dir copy)

let test_compare_same_file_refused () =
  with_dir (fun dir copy ->
      let status, out, err =
        run dir [ "perf"; "--json"; "./" ^ copy; "--compare"; copy ]
      in
      Alcotest.(check int) "exit 2" 2 status;
      Alcotest.(check string) "nothing measured" "" out;
      Alcotest.(check bool) "names the file" true (contains err copy);
      check_untouched dir copy)

let test_compare_round_trip () =
  with_dir (fun dir copy ->
      let smoke = [ "perf"; "--preset"; "smoke" ] in
      let status, _, _ = run dir (smoke @ [ "--json"; "a.json" ]) in
      Alcotest.(check int) "first run writes" 0 status;
      let status, out, _ = run dir (smoke @ [ "--compare"; "a.json" ]) in
      Alcotest.(check int) "second run passes" 0 status;
      Alcotest.(check bool) "comparison printed" true
        (contains out "perf compare: PASS");
      Sys.remove (Filename.concat dir "a.json");
      check_untouched dir copy)

let test_unknown_figure () =
  with_dir (fun dir copy ->
      let status, out, err = run dir [ "figures"; "fig99" ] in
      Alcotest.(check int) "usage error" 124 status;
      Alcotest.(check string) "nothing run" "" out;
      Alcotest.(check bool) "names the value" true (contains err "fig99");
      check_untouched dir copy)

let test_unwritable_sink () =
  with_dir (fun dir copy ->
      List.iter
        (fun args ->
          let what = String.concat " " args in
          let status, out, err =
            run dir (args @ [ "--json"; "/nonexistent/d/x.json" ])
          in
          Alcotest.(check int) (what ^ ": exit 2") 2 status;
          Alcotest.(check string) (what ^ ": no result printed") "" out;
          Alcotest.(check bool)
            (what ^ ": cannot write")
            true
            (contains err "cannot write"))
        [ [ "figures"; "fig9" ]; [ "prockill"; "--kills"; "1" ] ];
      check_untouched dir copy)

let crashmatrix dir args = run dir ("crashmatrix" :: args)

let check_usage_errors dir cases =
  List.iter
    (fun args ->
      let what = String.concat " " args in
      let status, out, _ = crashmatrix dir args in
      Alcotest.(check int) (what ^ ": usage error") 124 status;
      Alcotest.(check string) (what ^ ": nothing run") "" out)
    cases

let test_one_dimension () =
  with_dir (fun dir copy ->
      check_usage_errors dir
        [
          [ "--faults"; "--pipeline" ];
          [ "--ablation-check"; "--faults" ];
          [ "--ablation-check"; "--pipeline" ];
        ];
      check_untouched dir copy)

let test_file_grid_takes_no_sim_flags () =
  with_dir (fun dir copy ->
      check_usage_errors dir
        [
          [ "--backend"; "file"; "--faults"; "--scenario"; "nosuch" ];
          [ "--backend"; "file"; "--pipeline" ];
          [ "--backend"; "file"; "--scenario"; "respct" ];
          [ "--backend"; "file"; "--no-schedules" ];
        ];
      check_untouched dir copy)

let test_no_pcso_removed () =
  with_dir (fun dir copy ->
      check_usage_errors dir [ [ "--no-pcso" ] ];
      check_untouched dir copy)

let test_unknown_scenario () =
  with_dir (fun dir copy ->
      List.iter
        (fun (args, known) ->
          let what = String.concat " " args in
          let status, out, err = crashmatrix dir args in
          Alcotest.(check int) (what ^ ": exit 2") 2 status;
          Alcotest.(check string) (what ^ ": nothing run") "" out;
          Alcotest.(check bool)
            (what ^ ": lists the dimension's ids")
            true (contains err known))
        [
          ([ "--scenario"; "nosuch"; "--json"; "c.json" ],
           "respct-map, respct-queue");
          (* soft-map exists, but not in the fault dimension *)
          ([ "--faults"; "--scenario"; "soft"; "--json"; "c.json" ],
           "respct-map-noverify");
        ];
      check_untouched dir copy)

(* Refused before any work: exit 2, nothing printed, the reason on
   stderr, and no --json file left behind. *)
let check_refused dir cases =
  List.iter
    (fun (args, reason) ->
      let what = String.concat " " args in
      let status, out, err = run dir args in
      Alcotest.(check int) (what ^ ": exit 2") 2 status;
      Alcotest.(check string) (what ^ ": nothing run") "" out;
      Alcotest.(check bool) (what ^ ": says why") true (contains err reason))
    cases

let test_litmus_nothing_to_do () =
  with_dir (fun dir copy ->
      check_refused dir [ ([ "litmus"; "--json"; "a.json" ], "nothing to do") ];
      check_untouched dir copy)

let test_analyze_unknown_program () =
  with_dir (fun dir copy ->
      check_refused dir
        [
          ( [ "analyze"; "--program"; "nosuch"; "--json"; "b.json" ],
            "bank-transfer, kv-update, wal-append" );
        ];
      check_untouched dir copy)

let test_no_schedules_everywhere () =
  with_dir (fun dir copy ->
      let status, out, _ =
        crashmatrix dir
          [ "--pipeline"; "--scenario"; "respct-queue-pipeline";
            "--no-schedules" ]
      in
      Alcotest.(check int) "passes" 0 status;
      Alcotest.(check bool) "ran the scenario" true
        (contains out "respct-queue-pipeline");
      Alcotest.(check bool) "no schedule sweep" false
        (contains out "schedule sweeps");
      check_untouched dir copy)

let test_crashmatrix_json () =
  with_dir (fun dir copy ->
      let args = [ "--scenario"; "respct-map"; "--no-schedules" ] in
      let _, plain, _ = crashmatrix dir args in
      let status, out, _ = crashmatrix dir (args @ [ "--json"; "cm.json" ]) in
      Alcotest.(check int) "passes" 0 status;
      Alcotest.(check string) "text unchanged"
        (plain ^ "[structured results written to cm.json]\n")
        out;
      let path = Filename.concat dir "cm.json" in
      let doc = Obs.Json.of_file path in
      Sys.remove path;
      let field row k =
        match Obs.Json.member k row with
        | Some (Obs.Json.Int n) -> n
        | _ -> Alcotest.failf "row without %s" k
      in
      (match Result.map (Obs.Json.member "worlds") doc with
      | Ok (Some (Obs.Json.List [ row ])) ->
          Alcotest.(check (option string)) "id" (Some "respct-map")
            (match Obs.Json.member "id" row with
            | Some (Obs.Json.String id) -> Some id
            | _ -> None);
          Alcotest.(check bool) "images as printed" true
            (contains plain (Printf.sprintf "images=%d " (field row "images")));
          Alcotest.(check bool) "repeated images not recovered" true
            (field row "recoveries" < field row "images");
          Alcotest.(check int) "no failures" 0 (field row "failures")
      | _ -> Alcotest.fail "expected one world in the document");
      let status, out, _ =
        crashmatrix dir [ "--backend"; "file"; "--json"; "cm.json" ]
      in
      Alcotest.(check int) "file grid: usage error" 124 status;
      Alcotest.(check string) "file grid: nothing run" "" out;
      check_untouched dir copy)

let test_service_refused_config () =
  with_dir (fun dir copy ->
      List.iter
        (fun (args, field) ->
          let what = String.concat " " args in
          let status, out, err = run dir ("service" :: args) in
          Alcotest.(check int) (what ^ ": usage error") 124 status;
          Alcotest.(check string) (what ^ ": nothing run") "" out;
          Alcotest.(check bool) (what ^ ": names " ^ field) true
            (contains err field))
        [
          ([ "--shards"; "0" ], "shards");
          ([ "--crash-at-us"; "700" ], "File backend");
        ];
      check_untouched dir copy)

let () =
  Alcotest.run "cli"
    [
      ( "perf",
        [
          Alcotest.test_case "compare leaves the baseline" `Quick
            test_compare_reads_baseline;
          Alcotest.test_case "json naming the baseline refused" `Quick
            test_compare_same_file_refused;
          Alcotest.test_case "json output passes compare" `Quick
            test_compare_round_trip;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "unknown figure is a usage error" `Quick
            test_unknown_figure;
          Alcotest.test_case "unwritable json fails first" `Quick
            test_unwritable_sink;
        ] );
      ( "crashmatrix",
        [
          Alcotest.test_case "one dimension per run" `Quick
            test_one_dimension;
          Alcotest.test_case "file grid takes no sim flags" `Quick
            test_file_grid_takes_no_sim_flags;
          Alcotest.test_case "no-pcso removed" `Quick test_no_pcso_removed;
          Alcotest.test_case "unknown scenario exits 2" `Quick
            test_unknown_scenario;
          Alcotest.test_case "no-schedules in every dimension" `Quick
            test_no_schedules_everywhere;
          Alcotest.test_case "json rows beside unchanged text" `Quick
            test_crashmatrix_json;
        ] );
      ( "refusals",
        [
          Alcotest.test_case "litmus with nothing to do" `Quick
            test_litmus_nothing_to_do;
          Alcotest.test_case "analyze of an unknown program" `Quick
            test_analyze_unknown_program;
        ] );
      ( "service",
        [
          Alcotest.test_case "refused config is a usage error" `Quick
            test_service_refused_config;
        ] );
    ]
