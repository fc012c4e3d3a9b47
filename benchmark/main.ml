(* Benchmark command line.

     main.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                  [--smoke] [--out FILE] [--trace-out FILE]
     main.exe compare PARENT.json CHANGE.json

   [run] prints every metric by name with its unit, then, as the last line
   of standard output, one JSON object: correct, attempted, failed and the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   It exits 1 when an output check fails. Without --workload it runs all
   four workloads in turn and the last line covers the last one. *)

open Cmdliner
open Respct_benchmark
module Arg = Cmdliner.Arg

let run_cmd =
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"W"
          ~doc:
            ("One of "
            ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)
            ^ "; all of them when absent."))
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Input seed (42 by default; seed 7 is held out for claims).")
  in
  let seconds =
    Arg.(
      value & opt Arg.float 10.0
      & info [ "seconds" ] ~docv:"S"
          ~doc:"Keep making measured executions until S seconds have elapsed.")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1: add the sampled and counted passes and report per-layer metrics.")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"Shrink every workload to seconds in total.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Append this invocation to FILE (respct-benchmark-runs/v1), for $(b,compare).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"With --trace 1, write the trace (respct-benchmark-trace/v1) to FILE.")
  in
  let go workload seed seconds trace smoke out trace_out =
    let size = if smoke then Workloads.Smoke else Workloads.Full in
    let selected =
      match workload with
      | None -> Ok Workloads.all
      | Some name -> (
          match Workloads.find name with
          | Some w -> Ok [ w ]
          | None -> Error ("unknown workload " ^ name))
    in
    match selected with
    | Error e -> `Error (false, e)
    | Ok ws ->
        let results =
          List.map
            (fun w ->
              let res = Runner.run w ~size ~seed ~seconds ~trace in
              Runner.print_report res ~trace;
              Option.iter
                (fun path ->
                  match Runner.append_run path (Runner.run_json res ~trace) with
                  | Ok () -> ()
                  | Error e -> prerr_endline ("--out: " ^ e))
                out;
              if trace then
                Option.iter
                  (fun path -> Obs.Json.to_file path (Runner.trace_json res))
                  trace_out;
              res)
            ws
        in
        let last = List.nth results (List.length results - 1) in
        print_endline (Obs.Json.to_string (Runner.summary_json last ~trace));
        if List.for_all Runner.correct results then `Ok () else exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run benchmark workloads and check their outputs.")
    Term.(
      ret (const go $ workload $ seed $ seconds $ trace $ smoke $ out $ trace_out))

(* Internal: one execution in a fresh process, marshalled to stdout. *)
let execution_cmd =
  let workload =
    Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"W")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
  let pass =
    Arg.(
      value
      & opt (enum Workloads.passes) Workloads.Plain
      & info [ "pass" ] ~docv:"PASS")
  in
  let smoke = Arg.(value & flag & info [ "smoke" ]) in
  let go workload seed pass smoke =
    match Workloads.find workload with
    | None -> `Error (false, "unknown workload " ^ workload)
    | Some w ->
        let size = if smoke then Workloads.Smoke else Workloads.Full in
        `Ok (Runner.execution w ~size ~seed ~pass)
  in
  Cmd.v
    (Cmd.info "execution"
       ~doc:"Internal: make one execution of a workload; $(b,run) calls this.")
    Term.(ret (const go $ workload $ seed $ pass $ smoke))

let compare_cmd =
  let file n doc =
    Arg.(required & pos n (some Arg.file) None & info [] ~docv:doc)
  in
  let go parent change =
    match Compare.run ~parent ~change with
    | Error e -> `Error (false, e)
    | Ok 0 -> `Ok ()
    | Ok _ -> exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare recorded invocations of a change against its parent.")
    Term.(ret (const go $ file 0 "PARENT.json" $ file 1 "CHANGE.json"))

let () =
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "benchmark" ~doc:"ResPCT reproduction benchmark") [ run_cmd; compare_cmd; execution_cmd ]))
