(* Tests for the respct_experiments command line, run as a subprocess in a
   fresh temporary directory:

   - `perf --compare` reads its baseline and never writes over it: without
     --json it writes nothing, and a --json naming the baseline is refused
     with exit 2 before any measurement;
   - figure names are a closed set (cmdliner's usage error, exit 124);
   - an unwritable --json sink fails with exit 2 before any work. *)

let exe = Filename.concat (Sys.getcwd ()) "../bin/respct_experiments.exe"
let bench_baseline = Filename.concat (Sys.getcwd ()) "../BENCH_PR12.json"
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

(* The smoke preset's simulated throughput is far below the default-preset
   baseline, so an honest comparison fails. *)
let test_compare_reads_baseline () =
  with_dir (fun dir copy ->
      let status, out, _ =
        run dir
          [ "perf"; "--preset"; "smoke"; "--runs"; "1"; "--warmup"; "0";
            "--compare"; copy ]
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

let () =
  Alcotest.run "cli"
    [
      ( "perf",
        [
          Alcotest.test_case "compare leaves the baseline" `Quick
            test_compare_reads_baseline;
          Alcotest.test_case "json naming the baseline refused" `Quick
            test_compare_same_file_refused;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "unknown figure is a usage error" `Quick
            test_unknown_figure;
          Alcotest.test_case "unwritable json fails first" `Quick
            test_unwritable_sink;
        ] );
    ]
