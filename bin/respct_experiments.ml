(* Command-line front end for the evaluation harness: regenerate the
   paper's figures and tables, explore single data points, and run the
   benchmark gate, the crash campaigns and the analyzers, e.g.

     respct_experiments figures                       # every figure, small scale
     respct_experiments figures fig8 fig11 --scale paper --json out.json
     respct_experiments map --system respct --threads 16 --update 90
     respct_experiments queue --system pmthreads --threads 64
     respct_experiments recover --buckets 100000 --recovery-threads 32

   Every subcommand that writes a JSON document takes the same --json FILE
   option. *)

open Cmdliner
open Harness
module Arg = Cmdliner.Arg

let scale_arg =
  Arg.(
    value
    & opt
        (enum [ ("small", Experiments.small); ("paper", Experiments.paper) ])
        Experiments.small
    & info [ "scale" ] ~doc:"Experiment scale: small or paper.")

let threads_arg =
  Arg.(value & opt int 16 & info [ "threads" ] ~doc:"Worker thread count.")

let system_arg =
  let systems =
    [
      ("transient-dram", Systems.Transient_dram);
      ("transient-nvm", Systems.Transient_nvm);
      ("respct", Systems.Respct);
      ("pmthreads", Systems.Pmthreads);
      ("montage", Systems.Montage);
      ("clobber", Systems.Clobber);
      ("quadra", Systems.Quadra);
      ("soft", Systems.Soft);
      ("dali", Systems.Dali);
      ("friedman", Systems.Friedman);
    ]
  in
  Arg.(
    value
    & opt (enum systems) Systems.Respct
    & info [ "system" ] ~doc:"Persistence system to run.")

let update_arg =
  Arg.(
    value & opt int 50
    & info [ "update" ] ~doc:"Update percentage of the map mix (rest search).")

(* The one --json sink. The path is opened for writing (without
   truncating it) before the subcommand does any work, so an unwritable
   path fails with exit 2 up front and an existing file is left as it was
   until [write_json] replaces it. *)
let json_arg =
  let check = function
    | None -> None
    | Some path -> (
        match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
        | oc ->
            close_out oc;
            Some path
        | exception Sys_error msg ->
            Printf.eprintf "cannot write --json sink: %s\n" msg;
            exit 2)
  in
  let path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the structured results as one JSON document to $(docv).")
  in
  Term.(const check $ path)

let write_json sink doc =
  Option.iter
    (fun path ->
      Obs.Json.to_file path doc;
      Fmt.pr "[structured results written to %s]@." path)
    sink

let map_cmd =
  let run scale threads system update_pct json =
    let pt = Experiments.map_point_obs ~update_pct scale system ~threads in
    Printf.printf "%s HashMap %d threads %d%% updates: %.2f Mops/s (%d ops)\n"
      (Systems.name_of system) threads update_pct (Experiments.point_mops pt)
      (Experiments.point_extra_int pt "total_ops");
    (* Only the ResPCT runtime reports checkpoint statistics. *)
    if List.mem_assoc "checkpoints" pt.Obs.Run.extra then begin
      let ckpts = Experiments.point_extra_int pt "checkpoints" in
      Printf.printf "checkpoints=%d flushed=%d addrs effective-period=%.0fus\n"
        ckpts
        (Experiments.point_extra_int pt "flushed_addrs")
        (Experiments.point_eff pt /. 1e3);
      if ckpts > 0 then
        Printf.printf "mutator-stall=%.1fus/ckpt flush-overlap=%.1fus/ckpt\n"
          (Experiments.point_extra_float pt "stall_ns"
          /. float_of_int ckpts /. 1e3)
          (Experiments.point_extra_float pt "overlap_ns"
          /. float_of_int ckpts /. 1e3)
    end;
    write_json json (Obs.Run.document [ Obs.Run.experiment "map" [ pt ] ])
  in
  Cmd.v (Cmd.info "map" ~doc:"One HashMap data point (Figure 8 style).")
    Term.(const run $ scale_arg $ threads_arg $ system_arg $ update_arg
          $ json_arg)

let queue_cmd =
  let run scale threads system json =
    let pt = Experiments.queue_point_obs scale system ~threads in
    Printf.printf "%s Queue %d threads: %.2f Mops/s (%d ops)\n"
      (Systems.name_of system) threads (Experiments.point_mops pt)
      (Experiments.point_extra_int pt "total_ops");
    write_json json (Obs.Run.document [ Obs.Run.experiment "queue" [ pt ] ])
  in
  Cmd.v (Cmd.info "queue" ~doc:"One Queue data point (Figure 9 style).")
    Term.(const run $ scale_arg $ threads_arg $ system_arg $ json_arg)

let recover_cmd =
  let buckets_arg =
    Arg.(value & opt int 64_000 & info [ "buckets" ] ~doc:"HashMap buckets.")
  in
  let rthreads_arg =
    Arg.(
      value & opt int 32
      & info [ "recovery-threads" ] ~doc:"Parallel recovery threads.")
  in
  let run scale buckets rthreads =
    let s =
      { scale with Experiments.fig12_buckets = [ buckets ]; recovery_threads = rthreads }
    in
    List.iter
      (fun (label, cells) ->
        Printf.printf "buckets=%s recovery=%sms entries=%s rolled-back=%s\n"
          label (List.nth cells 0) (List.nth cells 1) (List.nth cells 2))
      (Figures.fig12_rows (Experiments.fig12_points s))
  in
  Cmd.v
    (Cmd.info "recover" ~doc:"Crash + parallel recovery (Figure 12 style).")
    Term.(const run $ scale_arg $ buckets_arg $ rthreads_arg)

let figures_cmd =
  let names =
    Arg.(
      value
      & pos_all (enum (List.map (fun f -> (f.Figures.name, f)) Figures.all)) []
      & info [] ~docv:"FIGURE"
          ~doc:
            "fig8 .. fig14, tab2 or tab3, run in the order given (default: \
             all of them).")
  in
  let run scale figures json =
    let setup = Figures.setup scale in
    Printf.printf
      "ResPCT evaluation harness — scale=%s (virtual-time results; \
       see EXPERIMENTS.md)\n"
      scale.Experiments.label;
    let experiments =
      List.filter_map
        (fun (f : Figures.figure) ->
          let t0 = Unix.gettimeofday () in
          let tables, experiment = f.Figures.run setup in
          List.iter Figures.print tables;
          Printf.printf "[%s done in %.1fs wall]\n%!" f.Figures.name
            (Unix.gettimeofday () -. t0);
          experiment)
        (match figures with [] -> Figures.all | l -> l)
    in
    write_json json
      (Obs.Run.document
         ~meta:[ ("scale", Obs.Json.String scale.Experiments.label) ]
         experiments)
  in
  Cmd.v
    (Cmd.info "figures"
       ~doc:
         "Regenerate the paper's figures and tables (section 5) as ASCII \
          tables; with --json, Figures 8-12 also write their per-point \
          results.")
    Term.(const run $ scale_arg $ names $ json_arg)

let integrity_cmd =
  let threads_opt =
    Arg.(
      value
      & opt (some int) None
      & info [ "threads" ]
          ~doc:"Restrict the sweep to one worker thread count.")
  in
  let run scale threads json =
    let threads = Option.map (fun t -> [ t ]) threads in
    let pts = Experiments.integrity_points ~scale ?threads () in
    let sweep =
      Option.value ~default:scale.Experiments.sweep_threads threads
    in
    Table.print ~title:"Integrity tax (ResPCT sealed/raw Mops, delta)"
      ~header:("threads:" :: List.map string_of_int sweep)
      (Experiments.integrity_overhead_rows pts);
    let sel f = List.concat_map (fun (_, cells) -> List.map f cells) pts in
    write_json json
      (Obs.Run.document
         [
           Obs.Run.experiment "integrity-off" (sel (fun (_, off, _) -> off));
           Obs.Run.experiment "integrity-on" (sel (fun (_, _, on) -> on));
         ])
  in
  Cmd.v
    (Cmd.info "integrity"
       ~doc:
         "Checksum-overhead sweep: ResPCT with sealed metadata \
          (config.integrity) against the raw representation, Queue and \
          HashMap workloads.")
    Term.(const run $ scale_arg $ threads_opt $ json_arg)

let perf_cmd =
  let preset_arg =
    Arg.(
      value
      & opt (enum [ ("default", Perf.Suite.default_preset);
                    ("smoke", Perf.Suite.smoke_preset) ])
          Perf.Suite.default_preset
      & info [ "preset" ]
          ~doc:
            "Benchmark preset: default (the fig8/fig9 sweeps at the \
             figures' scale) or smoke (shrunk worlds, seconds).")
  in
  let compare_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "compare" ] ~docv:"BASELINE"
          ~doc:
            "Compare against a committed baseline document and exit 1 \
             unless every baseline benchmark ran the same simulated ops \
             in the same virtual time.")
  in
  let only_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"BENCH" ~doc:"Run a single benchmark by name.")
  in
  let same_file a b =
    match (Unix.stat a, Unix.stat b) with
    | sa, sb -> sa.Unix.st_dev = sb.Unix.st_dev && sa.Unix.st_ino = sb.Unix.st_ino
    | exception Unix.Unix_error _ -> false
  in
  let run preset json compare only =
    (* Load the baseline before measuring, and refuse a --json that names
       it: writing first would grade the run against itself. *)
    let baseline =
      Option.map
        (fun path ->
          if Option.fold ~none:false ~some:(same_file path) json then begin
            Printf.eprintf "--json and --compare both name %s\n" path;
            exit 2
          end;
          match Obs.Json.of_file path with
          | Ok baseline -> baseline
          | Error msg ->
              Printf.eprintf "cannot load baseline %s: %s\n" path msg;
              exit 2)
        compare
    in
    let bs = Perf.Suite.run ?only preset in
    if bs = [] then begin
      Printf.eprintf "no benchmark selected (check --only)\n";
      exit 2
    end;
    List.iter
      (fun (b : Perf.Bench.t) ->
        Printf.printf "%-12s ops %9d  sim_ns %16.12g  sim %7.3f Mops/s\n"
          b.Perf.Bench.name b.Perf.Bench.ops b.Perf.Bench.sim_ns
          (Perf.Bench.sim_mops b))
      bs;
    (* The pause probe only makes sense for full-suite runs; --only is for
       iterating on one benchmark. *)
    if only = None then
      List.iter
        (fun (p : Perf.Suite.pause) ->
          Printf.printf
            "checkpoint-pause %-8s stall %8.1f us/ckpt  overlap %8.1f \
             us/ckpt  (%d checkpoints)\n"
            p.Perf.Suite.pause_mode p.Perf.Suite.pause_stall_us
            p.Perf.Suite.pause_overlap_us p.Perf.Suite.pause_checkpoints)
        (Perf.Suite.checkpoint_pause preset);
    let doc = Perf.Suite.document preset bs in
    write_json json doc;
    Option.iter
      (fun baseline ->
        let report = Perf.Compare.compare ~baseline ~current:doc in
        Perf.Compare.print_report Format.std_formatter report;
        if not (Perf.Compare.ok report) then exit 1)
      baseline
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Deterministic benchmark of the fig8/fig9 sweeps: each runs once \
          and reports its simulated ops and virtual time \
          (respct-sim/bench/v2 JSON); --compare gates both exactly against \
          a baseline.")
    Term.(const run $ preset_arg $ json_arg $ compare_arg $ only_arg)

(* The line a shrunk counterexample gets when its printed text did not
   replay. *)
let pp_parity ppf = function
  | Ok () -> ()
  | Error m -> Fmt.pf ppf "REPLAY DID NOT REPRODUCE (%s)@." m

let crashmatrix_cmd =
  let deep_arg =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:"Deep preset (more ops, seeds and schedules) instead of smoke.")
  in
  let scenario_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"PREFIX"
          ~doc:
            "Only run the chosen dimension's scenarios whose id starts with \
             $(docv); a prefix that matches none exits 2.")
  in
  let mode_arg =
    Arg.(
      value
      & vflag `Matrix
          [
            ( `Ablation,
              info [ "ablation-check" ]
                ~doc:
                  "Check the PCSO-reliance asymmetry: under word-granular \
                   write-back, InCLL-based systems must report violations \
                   and explicitly-flushing systems must not." );
            ( `Faults,
              info [ "faults" ]
                ~doc:
                  "Run the media-fault dimension: layer deterministic torn / \
                   poisoned / bit-flipped / transiently-failing images on \
                   every crash image; integrity-mode recovery must detect or \
                   exactly repair every fault and the planted \
                   no-verification mutant must break." );
            ( `Pipeline,
              info [ "pipeline" ]
                ~doc:
                  "Run the pipelined-checkpointing dimension: pipeline-mode \
                   worlds (async epoch advance, double-buffered commits) \
                   must recover at every crash boundary including \
                   mid-overlap windows, and the planted overlap-protocol \
                   mutants (early seal, missing overlap barrier, eager \
                   reclamation) must break with shrunk, replayable \
                   counterexamples. Includes the pipelined schedule sweep." );
          ])
  in
  let no_schedules_arg =
    Arg.(
      value & flag
      & info [ "no-schedules" ] ~doc:"Skip the schedule-exploration sweeps.")
  in
  let backend_arg =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("file", `File) ]) `Sim
      & info [ "backend" ]
          ~doc:
            "Crash medium: sim (the cache-model dimensions) or file (the \
             Filemem dimension: virtual power cuts over memory-mapped \
             images, held to the prockill digest oracles with exact \
             shrinking). The file grid takes no dimension flag, \
             --scenario, --no-schedules or --json.")
  in
  let run deep filter mode no_schedules backend json =
    let p = if deep then Crashtest.Matrix.deep else Crashtest.Matrix.smoke in
    let exit_with ok = if ok then `Ok () else exit 1 in
    match backend with
    | `File ->
        if mode <> `Matrix || filter <> None || no_schedules then
          `Error
            ( true,
              "--backend file runs the file-image grid alone: drop \
               --ablation-check, --faults, --pipeline, --scenario and \
               --no-schedules" )
        else if json <> None then
          `Error (true, "--json lists explored worlds; the file grid has none")
        else exit_with (Crashtest.Filematrix.check p Fmt.stdout)
    | `Sim ->
        let dimension, check, name =
          match mode with
          | `Matrix ->
              (Crashtest.Scenarios.Ablation, Crashtest.Matrix.run, "matrix")
          | `Ablation ->
              ( Crashtest.Scenarios.Ablation,
                Crashtest.Matrix.ablation_check,
                "ablation-check" )
          | `Faults ->
              ( Crashtest.Scenarios.Faults,
                Crashtest.Matrix.faults_check,
                "faults" )
          | `Pipeline ->
              ( Crashtest.Scenarios.Pipeline,
                Crashtest.Matrix.pipeline_check,
                "pipeline" )
        in
        Option.iter
          (fun prefix ->
            if Crashtest.Matrix.entries ~filter:prefix dimension = [] then begin
              Fmt.epr "unknown scenario %s (know: %s)@." prefix
                (String.concat ", "
                   (List.map
                      (fun (e : Crashtest.Scenarios.entry) ->
                        e.Crashtest.Scenarios.id)
                      (Crashtest.Matrix.entries dimension)));
              exit 2
            end)
          filter;
        let rows = ref [] in
        let ok =
          check ?filter ~schedules:(not no_schedules)
            ~record:(fun o -> rows := Crashtest.Report.outcome_json o :: !rows)
            p Fmt.stdout
        in
        write_json json
          (Obs.Json.Obj
             [
               ("schema", Obs.Json.String "respct-crashmatrix/v1");
               ("preset", Obs.Json.String p.Crashtest.Matrix.label);
               ("dimension", Obs.Json.String name);
               ("worlds", Obs.Json.List (List.rev !rows));
             ]);
        exit_with ok
  in
  Cmd.v
    (Cmd.info "crashmatrix"
       ~doc:
         "Exhaustive crash-point and schedule exploration with \
          durable-linearizability oracles over ResPCT and all baselines.")
    Term.(
      ret
        (const run $ deep_arg $ scenario_arg $ mode_arg $ no_schedules_arg
       $ backend_arg $ json_arg))

let analyze_cmd =
  let program_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "program" ] ~docv:"NAME"
          ~doc:"Only analyse the corpus program $(docv).")
  in
  let iters_arg =
    Arg.(
      value & opt int 8
      & info [ "iters" ] ~doc:"Loop iteration count for the IR corpus.")
  in
  let strip_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "strip-log" ] ~docv:"VAR"
          ~doc:
            "Drop $(docv) from each inferred logging set before linting \
             (the planted mutant; a logged variable makes the gate fail).")
  in
  let dynamic_arg =
    Arg.(
      value & flag
      & info [ "dynamic" ]
          ~doc:
            "Also cross-check each inferred plan against the WAR audit \
             of a simulator run: every dynamically observed WAR variable \
             must be statically logged.")
  in
  let persistency_arg =
    Arg.(
      value & flag
      & info [ "persistency" ]
          ~doc:
            "Print the persist-state crash summary per program (the \
             lifecycle mask per persistent variable plus the \
             must-durable / may-dirty sets) and include it in the JSON \
             document.")
  in
  let mutant_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("strip-psync", Litmus.Axcheck.Strip_psync);
                  ("redundant-pwb", Litmus.Axcheck.Inject_redundant_pwb);
                ]))
          None
      & info [ "mutant" ] ~docv:"KIND"
          ~doc:
            "Plant a flush-discipline mutant ($(b,strip-psync) or \
             $(b,redundant-pwb)) into every program before linting; \
             exit 1 iff the expected finding appears — the CI steps \
             invert this. $(b,strip-psync) additionally runs the \
             axiomatic gate on the WAL litmus twin and writes a shrunk \
             replayable counterexample.")
  in
  let axcheck_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "axcheck" ] ~docv:"N"
          ~doc:
            "Fuzz $(docv) random litmus programs through the static \
             persist-state analyzer and require every must-durable \
             claim to hold in every axiomatically-allowed post-crash \
             state; the first violation is shrunk and written as a \
             replayable counterexample.")
  in
  let axseed_arg =
    Arg.(
      value & opt int 1
      & info [ "axcheck-seed" ] ~doc:"Base seed for --axcheck generation.")
  in
  let ce_arg =
    Arg.(
      value & opt string "axcheck-counterexample.txt"
      & info [ "counterexample-out" ] ~docv:"FILE"
          ~doc:"Where --axcheck and --mutant write a shrunk counterexample.")
  in
  let run program iters json strip dynamic persistency mutant axcheck axseed
      ce_file =
    let ppf = Fmt.stdout in
    let corpus = Analysis.Corpus.all @ Analysis.Corpus.flush_corpus in
    let selected =
      match program with
      | None -> corpus
      | Some n -> (
          match List.filter (fun (cn, _) -> cn = n) corpus with
          | [] ->
              Fmt.epr "unknown program %s (know: %s)@." n
                (String.concat ", " (List.map fst corpus));
              exit 2
          | l -> l)
    in
    let failed = ref false in
    let expected_rule =
      match mutant with
      | None -> None
      | Some Litmus.Axcheck.Strip_psync ->
          Some "missing-psync-before-dependent-publish"
      | Some Litmus.Axcheck.Inject_redundant_pwb -> Some "redundant-pwb"
    in
    let mutant_hits = ref 0 in
    let docs =
      List.map
        (fun (cname, prog) ->
          let base = prog ~iters in
          let base =
            match mutant with
            | None -> base
            | Some Litmus.Axcheck.Strip_psync ->
                Analysis.Flushlint.strip_psync base
            | Some Litmus.Axcheck.Inject_redundant_pwb ->
                Analysis.Flushlint.inject_redundant_pwb base
          in
          let p, plan = Analysis.Placement.infer base in
          let plan =
            match strip with
            | None -> plan
            | Some v ->
                {
                  plan with
                  Analysis.Placement.log =
                    Analysis.Dataflow.Vars.remove v plan.Analysis.Placement.log;
                }
          in
          let findings = Analysis.Lint.run ~plan p in
          Fmt.pf ppf "== %s ==@.%a@." cname Analysis.Placement.pp_plan plan;
          List.iter (Fmt.pf ppf "%a@." Analysis.Lint.pp_finding) findings;
          (match expected_rule with
          | None -> ()
          | Some r ->
              let hits =
                List.filter
                  (fun (f : Analysis.Lint.finding) ->
                    Analysis.Lint.rule_name f.Analysis.Lint.rule = r)
                  findings
              in
              mutant_hits := !mutant_hits + List.length hits);
          let errors = Analysis.Lint.errors findings in
          if errors <> [] then begin
            failed := true;
            Fmt.pf ppf "%d error(s)@." (List.length errors)
          end;
          let pers_json =
            if not persistency then []
            else begin
              let summary =
                Analysis.Persistate.summarize
                  ~crash_var:Litmus.World.halt_var
                  (Analysis.Persistate.create p)
              in
              Fmt.pf ppf "%a@." Analysis.Persistate.pp_summary summary;
              [ ("persistency", Analysis.Persistate.summary_to_json summary) ]
            end
          in
          let dyn_json =
            if not dynamic then []
            else begin
              let {
                Analysis.Audit.cc_agrees;
                cc_static_log;
                cc_dynamic_log;
                cc_races;
                cc_segments;
              } =
                Analysis.Audit.cross_check_ir ~n_ops:iters prog
              in
              Fmt.pf ppf
                "dynamic cross-check: %s (static log {%s} / dynamic {%s}), \
                 %d race(s)@."
                (if cc_agrees then "agrees" else "DISAGREES")
                (String.concat ", " cc_static_log)
                (String.concat ", " cc_dynamic_log)
                (List.length cc_races);
              if not cc_agrees then failed := true;
              [
                ( "dynamic",
                  Obs.Json.Obj
                    [
                      ("agrees", Obs.Json.Bool cc_agrees);
                      ( "dynamic_log",
                        Obs.Json.List
                          (List.map (fun v -> Obs.Json.String v) cc_dynamic_log)
                      );
                      ("races", Obs.Json.Int (List.length cc_races));
                      ("segments", Obs.Json.Int cc_segments);
                    ] );
              ]
            end
          in
          Obs.Json.Obj
            ([
               ("name", Obs.Json.String cname);
               ("plan", Analysis.Placement.plan_to_json p plan);
               ("lint", Analysis.Lint.to_json p findings);
             ]
            @ pers_json @ dyn_json))
        selected
    in
    let write_ce text =
      try
        Out_channel.with_open_text ce_file (fun oc ->
            Out_channel.output_string oc text)
      with Sys_error msg -> Fmt.epr "cannot write %s: %s@." ce_file msg
    in
    (match (mutant, expected_rule) with
    | Some m, Some r ->
        let mname = Litmus.Axcheck.mutant_name m in
        if !mutant_hits > 0 then begin
          failed := true;
          Fmt.pf ppf "mutant %s caught statically: %d %s finding(s)@." mname
            !mutant_hits r
        end
        else Fmt.pf ppf "mutant %s NOT caught (no %s finding)@." mname r;
        if m = Litmus.Axcheck.Strip_psync then begin
          match
            Litmus.Axcheck.counterexample ~mutant:m
              ~variant:Litmus.Axiom.Pcso_lazy Litmus.Axcheck.demo
          with
          | None ->
              failed := true;
              Fmt.pf ppf
                "axcheck: stripped WAL twin shows no claim violation — \
                 the gate lost its teeth@."
          | Some s ->
              write_ce s.Obs.Cx.text;
              Fmt.pf ppf
                "axcheck: WAL twin claim violated under %s (re-run: \
                 replay %s):@.%s%a"
                mname ce_file s.Obs.Cx.text pp_parity s.Obs.Cx.parity
        end
    | _ -> ());
    let ax_json =
      match axcheck with
      | None -> []
      | Some n ->
          let r = Litmus.Axcheck.fuzz ~n ~seed:axseed () in
          Fmt.pf ppf
            "axcheck: %d programs tested, %d skipped (state cap), %d \
             must-durable claims verified@."
            r.Litmus.Axcheck.fz_tested r.Litmus.Axcheck.fz_skipped
            r.Litmus.Axcheck.fz_claims;
          (match r.Litmus.Axcheck.fz_failure with
          | None -> ()
          | Some s ->
              failed := true;
              write_ce s.Obs.Cx.text;
              Fmt.pf ppf
                "axcheck: shrunk soundness violation (re-run: replay %s):@.%s%a"
                ce_file s.Obs.Cx.text pp_parity s.Obs.Cx.parity);
          [ ("axcheck", Litmus.Axcheck.fuzz_to_json r) ]
    in
    write_json json
      (Obs.Json.Obj
         ([
            ("schema", Obs.Json.String "respct-analyze/v2");
            ("programs", Obs.Json.List docs);
          ]
         @ ax_json));
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static persistency analysis over the IR corpus: infer restart \
          points and the InCLL-logging plan, run the lint and the \
          persist-state flush-discipline rules, gate the analyzer's \
          must-durable claims against the axiomatic PCSO spec \
          (--axcheck), emit JSON diagnostics; nonzero exit on any error \
          finding (the CI gate).")
    Term.(
      const run $ program_arg $ iters_arg $ json_arg $ strip_arg $ dynamic_arg
      $ persistency_arg $ mutant_arg $ axcheck_arg $ axseed_arg $ ce_arg)

let litmus_cmd =
  let corpus_arg =
    Arg.(
      value & flag
      & info [ "corpus" ]
          ~doc:
            "Check every named corpus test against both worlds under \
             its declared axiom variants, plus the axiom-level inclusions \
             (eADR admits only no-loss states; the word ablation admits \
             every PCSO state).")
  in
  let fuzz_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuzz" ] ~docv:"N"
          ~doc:
            "Generate $(docv) random litmus programs and check soundness \
             in every world; the first violation is shrunk and written as \
             a replayable counterexample.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~doc:"Base seed for generation and sampling.")
  in
  let samples_arg =
    Arg.(
      value & opt int 24
      & info [ "samples" ]
          ~doc:"(schedule, crash-image) pairs per program and world.")
  in
  let world_arg =
    Arg.(
      value
      & opt (some (enum
               [ ("kernel", Litmus.World.Kernel);
                 ("ref", Litmus.World.Refm) ])) None
      & info [ "world" ] ~doc:"Restrict to one world (default: both).")
  in
  let variant_arg =
    Arg.(
      value
      & opt (enum
               [ ("pcso", Litmus.Axiom.Pcso);
                 ("pcso-lazy", Litmus.Axiom.Pcso_lazy);
                 ("eadr", Litmus.Axiom.Eadr);
                 ("ablation", Litmus.Axiom.Ablation) ])
          Litmus.Axiom.Pcso
      & info [ "variant" ] ~doc:"Axiom variant for --fuzz (default pcso).")
  in
  let mutant_arg =
    Arg.(
      value & flag
      & info [ "mutant" ]
          ~doc:
            "Plant the drop-same-line-order kernel mutant (word-granular \
             write-back under PCSO axioms) before checking — for \
             demonstrating detection; a clean run under it means the \
             harness lost its teeth.")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Print every allowed-state set alongside the checks.")
  in
  let ce_arg =
    Arg.(
      value & opt string "litmus-counterexample.txt"
      & info [ "counterexample-out" ] ~docv:"FILE"
          ~doc:"Where --fuzz writes a shrunk counterexample.")
  in
  let run corpus fuzz_n seed samples world variant mutant verbose ce_file json
      =
    let ppf = Fmt.stdout in
    let worlds =
      match world with Some w -> [ w ] | None -> Litmus.World.all_ids
    in
    if mutant then
      Litmus.World.set_mutant (Some Litmus.World.Drop_same_line_order);
    let failed = ref false in
    let reports = ref [] in
    if corpus then begin
      List.iter
        (fun (e : Litmus.Corpus.entry) ->
          let locs = Litmus.Prog.locs e.Litmus.Corpus.e_prog in
          if verbose then
            List.iter
              (fun v ->
                Fmt.pf ppf "%-16s %-9s allowed %a@."
                  e.Litmus.Corpus.e_name
                  (Litmus.Axiom.variant_name v)
                  (Litmus.Axiom.pp_outcomes locs)
                  (Litmus.Axiom.allowed ~variant:v e.Litmus.Corpus.e_prog)
                    .Litmus.Axiom.outcomes)
              e.Litmus.Corpus.e_variants;
          List.iter
            (fun (a, b) ->
              failed := true;
              Fmt.pf ppf "%-16s AXIOM FAIL: %s not within %s@."
                e.Litmus.Corpus.e_name
                (Litmus.Axiom.variant_name a)
                (Litmus.Axiom.variant_name b))
            (Litmus.Axiom.failed_inclusions e.Litmus.Corpus.e_prog);
          List.iter
            (fun v ->
              List.iter
                (fun w ->
                  let r =
                    Litmus.Harness.check ~samples ~seed ~world:w
                      ~variant:v e.Litmus.Corpus.e_prog
                  in
                  reports := r :: !reports;
                  match r.Litmus.Harness.r_violations with
                  | [] ->
                      Fmt.pf ppf "%-16s %-6s %-9s ok (%d samples)@."
                        e.Litmus.Corpus.e_name
                        (Litmus.World.id_name w)
                        (Litmus.Axiom.variant_name v)
                        r.Litmus.Harness.r_samples
                  | v0 :: _ ->
                      failed := true;
                      Fmt.pf ppf "%-16s %-6s %-9s VIOLATION %a@."
                        e.Litmus.Corpus.e_name
                        (Litmus.World.id_name w)
                        (Litmus.Axiom.variant_name v)
                        (Litmus.Harness.pp_violation locs)
                        v0)
                worlds)
            e.Litmus.Corpus.e_variants)
        Litmus.Corpus.all
    end;
    let fuzz_json =
      match fuzz_n with
      | None -> Obs.Json.Null
      | Some n ->
          let r =
            Litmus.Harness.fuzz ~n ~seed ~samples ~worlds
              ~variants:[ variant ] ()
          in
          Fmt.pf ppf
            "fuzz: %d programs tested, %d skipped (state cap)@."
            r.Litmus.Harness.f_tested r.Litmus.Harness.f_skipped;
          (match r.Litmus.Harness.f_failure with
          | None -> ()
          | Some s ->
              failed := true;
              (try
                 Out_channel.with_open_text ce_file (fun oc ->
                     Out_channel.output_string oc s.Obs.Cx.text)
               with Sys_error msg ->
                 Fmt.epr "cannot write %s: %s@." ce_file msg);
              Fmt.pf ppf "fuzz: shrunk violation (re-run: replay %s):@.%s%a"
                ce_file s.Obs.Cx.text pp_parity s.Obs.Cx.parity);
          Obs.Json.Obj
            [
              ("tested", Obs.Json.Int r.Litmus.Harness.f_tested);
              ("skipped", Obs.Json.Int r.Litmus.Harness.f_skipped);
              ( "failure",
                match r.Litmus.Harness.f_failure with
                | Some { Obs.Cx.witness = p, Some v; _ } ->
                    Obs.Json.Obj
                      [
                        ( "program",
                          Obs.Json.String (Litmus.Prog.to_string p) );
                        ( "violation",
                          Litmus.Harness.violation_to_json v );
                      ]
                | _ -> Obs.Json.Null );
            ]
    in
    if (not corpus) && fuzz_n = None then begin
      Fmt.epr "nothing to do: pass --corpus or --fuzz N@.";
      exit 2
    end;
    write_json json
      (Obs.Json.Obj
         [
           ("schema", Obs.Json.String "respct-litmus/v1");
           ("seed", Obs.Json.Int seed);
           ("samples", Obs.Json.Int samples);
           ( "mutant",
             Obs.Json.Bool
               (Litmus.World.mutant () = Some Litmus.World.Drop_same_line_order)
           );
           ( "corpus",
             Obs.Json.List (List.rev_map Litmus.Harness.report_to_json !reports)
           );
           ("fuzz", fuzz_json);
         ]);
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:
         "Persistency-model litmus testing: check the kernel and the \
          reference model against the axiomatic PCSO spec on named \
          corpus tests and fuzzed programs, with shrunk replayable \
          counterexamples.")
    Term.(
      const run $ corpus_arg $ fuzz_arg $ seed_arg $ samples_arg $ world_arg
      $ variant_arg $ mutant_arg $ verbose_arg $ ce_arg $ json_arg)

let prockill_cmd =
  let kills_arg =
    Arg.(
      value & opt int 50
      & info [ "kills" ] ~doc:"Fault-free SIGKILL trials to run.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:"Campaign seed (kill delays, workload mix, sub-trial coins).")
  in
  let max_delay_arg =
    Arg.(
      value & opt int 25_000
      & info [ "max-delay-us" ]
          ~doc:"Upper bound on the wall-clock kill delay in microseconds.")
  in
  let mutant_trials_arg =
    Arg.(
      value & opt int 12
      & info [ "mutant-trials" ]
          ~doc:
            "Attempts to catch the planted psync-elision mutant (0 \
             disables the hunt).")
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Directory for trial images and logs (default: /dev/shm when \
             writable, else the system temp dir).")
  in
  let run kills seed max_delay mutant_trials dir json =
    let c =
      Prockill_campaign.run ~kills ~seed ~max_delay_us:max_delay ~mutant_trials
        ~progress:(fun m -> Fmt.pr "[prockill] %s@." m)
        ?dir ()
    in
    write_json json (Prockill_campaign.json_of_campaign c);
    match c.Prockill_campaign.c_skipped with
    | Some reason ->
        Fmt.pr "prockill: SKIPPED (%s)@." reason;
        exit 0
    | None ->
        let nviol = Prockill_campaign.violation_count c in
        Fmt.pr "prockill: %d kills, %d violation(s)@." c.Prockill_campaign.c_kills nviol;
        List.iter
          (fun o ->
            if o.Prockill.o_violations <> [] then begin
              Fmt.pr "  trial %d: %s" o.Prockill.o_params.Prockill.trial
                (Obs.Cx.to_string (Prockill_campaign.campaign ()) o.Prockill.o_params);
              List.iter
                (fun v -> Fmt.pr "    %a@." Prockill.pp_violation v)
                o.Prockill.o_violations
            end)
          c.Prockill_campaign.c_trials;
        let mutant_ok =
          match c.Prockill_campaign.c_mutant with
          | None -> true
          | Some m -> (
              match m.Prockill_campaign.m_shrunk with
              | Some s ->
                  Fmt.pr
                    "mutant: psync elision DETECTED after %d trial(s); shrunk \
                     (%s):@.  %s%a"
                    m.Prockill_campaign.m_attempts s.Obs.Cx.reason s.Obs.Cx.text
                    pp_parity s.Obs.Cx.parity;
                  s.Obs.Cx.parity = Ok ()
              | None ->
                  Fmt.pr "mutant: NOT detected in %d trial(s)@."
                    m.Prockill_campaign.m_attempts;
                  false)
        in
        if nviol = 0 && mutant_ok then exit 0 else exit 1
  in
  Cmd.v
    (Cmd.info "prockill"
       ~doc:
         "Real-process SIGKILL crash campaign: fork seeded workloads \
          against the file-backed backend, kill them at randomised points, \
          reopen and hold verified recovery to the durability oracles; \
          then catch the planted psync-elision mutant and shrink the \
          counterexample to a replayable line.")
    Term.(
      const run $ kills_arg $ seed_arg $ max_delay_arg $ mutant_trials_arg
      $ dir_arg $ json_arg)

(* The one replay entry: every campaign's counterexample text ends in a
   [# <tag> k=v ...] line, and the tag picks the campaign. *)
let replay_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Counterexample file as printed by a campaign; - reads stdin.")
  in
  let campaigns =
    [
      Obs.Cx.Campaign Crashtest.Matrix.campaign;
      Obs.Cx.Campaign (Crashtest.Filematrix.campaign ());
      Obs.Cx.Campaign (Prockill_campaign.campaign ());
      Obs.Cx.Campaign (Litmus.Harness.campaign ());
      Obs.Cx.Campaign Litmus.Axcheck.campaign;
    ]
  in
  let run file =
    let result =
      match
        if file = "-" then In_channel.input_all stdin
        else In_channel.with_open_text file In_channel.input_all
      with
      | text -> Obs.Cx.replay campaigns text
      | exception Sys_error msg -> Error (Obs.Cx.Unreadable msg)
    in
    match result with
    | Ok (tag, Obs.Cx.Reproduced reason) ->
        Fmt.pr "replay %s: violation reproduced: %s@." tag reason;
        exit 1
    | Ok (tag, Obs.Cx.Vanished n) ->
        Fmt.pr "replay %s: no violation in %d run(s)@." tag n
    | Error e ->
        Fmt.epr "replay %s: %a@." file Obs.Cx.pp_error e;
        exit 2
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run one counterexample printed by crashmatrix (either \
          backend), prockill, litmus or analyze. Exit 1: the violation \
          reproduced; 0: it did not; 2: the counterexample could not be \
          replayed (unreadable, unknown tag, bad field, or the harness \
          failed).")
    Term.(const run $ file_arg)

let service_cmd =
  let preset_arg =
    Arg.(
      value
      & opt (enum [ ("smoke", `Smoke); ("sweep", `Sweep) ]) `Smoke
      & info [ "preset" ]
          ~doc:
            "Service preset: smoke (4 shards, 200 sessions, seconds-scale) \
             or sweep (8 shards, 10k sessions, 2^20 keys, zipfian hot-key \
             storm).")
  in
  let opt_int name doc =
    Arg.(value & opt (some int) None & info [ name ] ~doc)
  in
  let shards_arg = opt_int "shards" "Override: shard count." in
  let workers_arg = opt_int "workers" "Override: worker threads per shard." in
  let sessions_arg = opt_int "sessions" "Override: concurrent client sessions." in
  let requests_arg = opt_int "requests" "Override: requests per session." in
  let keys_arg = opt_int "keys" "Override: keyspace size." in
  let seed_arg = opt_int "seed" "Override: run seed." in
  let period_us_arg =
    Arg.(
      value
      & opt (some Arg.float) None
      & info [ "period-us" ] ~doc:"Override: per-shard checkpoint period (µs).")
  in
  let backend_arg =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("file", `File) ]) `Sim
      & info [ "backend" ]
          ~doc:
            "Shard medium: sim (in-memory simulator) or file (Filemem \
             images; enables the end-of-run durability audit and crash \
             trials).")
  in
  let crash_at_arg =
    Arg.(
      value
      & opt (some Arg.float) None
      & info [ "crash-at-us" ] ~docv:"T"
          ~doc:
            "Crash-under-load trial: SIGKILL-style crash of one shard at \
             virtual instant $(docv) µs (requires --backend file); the \
             victim recovers via verified recovery while the survivors \
             keep serving.")
  in
  let crash_shard_arg =
    Arg.(
      value & opt int 0
      & info [ "crash-shard" ] ~doc:"Which shard the crash trial kills.")
  in
  let run preset shards workers sessions requests keys seed period_us
      backend crash_at_us crash_shard json =
    let base =
      match preset with
      | `Sweep -> Service.Front.sweep
      | `Smoke -> Service.Front.smoke
    in
    let ov v = function None -> v | Some x -> x in
    let cfg =
      {
        base with
        Service.Front.shards = ov base.Service.Front.shards shards;
        workers = ov base.Service.Front.workers workers;
        sessions = ov base.Service.Front.sessions sessions;
        requests = ov base.Service.Front.requests requests;
        keys = ov base.Service.Front.keys keys;
        seed = ov base.Service.Front.seed seed;
        period_ns =
          (match period_us with
          | None -> base.Service.Front.period_ns
          | Some us -> us *. 1_000.0);
        (* [validate] reads the kind; the scratch directory comes later *)
        backend =
          (match backend with
          | `Sim -> Service.Front.Sim
          | `File -> Service.Front.File "");
      }
    in
    let crash_at_ns = Option.map (fun us -> us *. 1_000.0) crash_at_us in
    let serve cfg =
      let r = Service.Front.run ?crash_at_ns ~crash_shard cfg in
      let open Service.Front in
      Printf.printf
        "service: %d shards x %d workers, %d sessions x %d reqs, %d keys \
         (zipf %.2f, %d%% reads)\n"
        cfg.shards cfg.workers cfg.sessions cfg.requests cfg.keys cfg.theta
        cfg.read_pct;
      Printf.printf
        "  completed %d, failed %d, retried %d, rejects %d full / %d down\n"
        r.r_completed r.r_failed r.r_retried r.r_rejected_full
        r.r_rejected_down;
      Printf.printf
        "  throughput %.3f Mreq/s over %.3f ms; checkpoint stall overlap %.0f \
         ns\n"
        r.r_mrps (r.r_makespan_ns /. 1e6) r.r_stall_overlap_ns;
      List.iter
        (fun sr ->
          Printf.printf
            "  shard %d%s: served %d in %d batches (%d coalesced), max depth \
             %d, %d ckpts, sealed epoch %d, stall %.0f ns\n"
            sr.sr_id
            (if sr.sr_down then " (down)" else "")
            sr.sr_served sr.sr_batches sr.sr_coalesced sr.sr_max_depth
            sr.sr_checkpoints sr.sr_sealed sr.sr_stall_ns)
        r.r_shards;
      let crash_ok =
        match r.r_crash with
        | None -> true
        | Some cr ->
            Printf.printf
              "  crash: shard %d at %.1f µs -> verdict %s, failed epoch %d \
               (sealed %d)%s, dropped %d, recovery %.0f ns, survivors %.3f \
               Mreq/s\n"
              cr.cr_shard (cr.cr_at_ns /. 1e3) cr.cr_verdict cr.cr_failed_epoch
              cr.cr_sealed_at_crash
              (match cr.cr_digest_match with
              | Some true -> ", digest ok"
              | Some false -> ", DIGEST MISMATCH"
              | None -> "")
              cr.cr_dropped cr.cr_recovery_ns cr.cr_survivor_mrps;
            cr.cr_exact && cr.cr_violations = []
      in
      let surv_ok = List.for_all (fun sc -> sc.sc_ok) r.r_survivors in
      if r.r_survivors <> [] then
        Printf.printf "  survivor audit: %d/%d ok\n"
          (List.length (List.filter (fun sc -> sc.sc_ok) r.r_survivors))
          (List.length r.r_survivors);
      write_json json (Service.Front.to_json r);
      crash_ok && surv_ok
    in
    match Service.Front.validate ?crash_at_ns ~crash_shard cfg with
    | Error field -> `Error (true, "refused service config: " ^ field)
    | Ok () ->
        let ok =
          match cfg.Service.Front.backend with
          | Service.Front.Sim -> serve cfg
          | Service.Front.File _ ->
              Prockill.with_scratch_dir "respct-svc" (fun d ->
                  serve { cfg with Service.Front.backend = Service.Front.File d })
        in
        if ok then `Ok () else exit 1
  in
  Cmd.v
    (Cmd.info "service"
       ~doc:
         "Sharded KV service: simulated client sessions through admission \
          control and consistent-hash routing into independently-\
          checkpointed ResPCT shards with a rolling checkpoint schedule; \
          optional crash-under-load trial with verified recovery.")
    Term.(
      ret
        (const run $ preset_arg $ shards_arg $ workers_arg $ sessions_arg
       $ requests_arg $ keys_arg $ seed_arg $ period_us_arg $ backend_arg
       $ crash_at_arg $ crash_shard_arg $ json_arg))

let () =
  let info =
    Cmd.info "respct_experiments"
      ~doc:"Explore the ResPCT reproduction's experiments."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            map_cmd;
            queue_cmd;
            recover_cmd;
            figures_cmd;
            integrity_cmd;
            perf_cmd;
            crashmatrix_cmd;
            analyze_cmd;
            litmus_cmd;
            prockill_cmd;
            service_cmd;
            replay_cmd;
          ]))
