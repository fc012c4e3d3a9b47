(* The crash matrix: every scenario × every crash boundary × every
   adversarial image, plus the schedule sweeps, behind two presets.

   [run] is the correctness gate (zero violations expected everywhere);
   [ablation_check] flips the world to word-granular write-back and
   checks the *asymmetry*: systems whose recovery leans on PCSO's
   same-line store ordering (ResPCT's InCLL, Quadra's in-line logging)
   must break, systems that persist each datum with explicit flushes
   before depending on it (Clobber's write-ahead undo log, SOFT's
   validity-tagged pnodes, FriedmanQueue) must keep passing. A matrix
   where everything passes under the ablation would mean the explorer
   cannot see persist-order bugs at all. *)

type preset = {
  label : string;
  map_ops : int;
  queue_ops : int;
  seeds : (int * int) list;  (** (sched_seed, mem_seed) pairs *)
  max_images : int;
  sched_seeds : int list;
  sched_delays : float list;
  sched_stride : int;
  fault_seeds : int list;
}

let smoke =
  {
    label = "smoke";
    map_ops = 18;
    queue_ops = 14;
    seeds = [ (1, 1) ];
    max_images = 48;
    sched_seeds = [ 1; 2 ];
    sched_delays = [ 400.0 ];
    sched_stride = 7;
    fault_seeds = [ 7 ];
  }

let deep =
  {
    label = "deep";
    map_ops = 40;
    queue_ops = 32;
    seeds = [ (1, 1); (2, 3); (5, 7) ];
    max_images = 160;
    sched_seeds = [ 1; 2; 3; 4; 5; 6 ];
    sched_delays = [ 150.0; 1200.0 ];
    sched_stride = 3;
    fault_seeds = [ 7; 23 ];
  }

let n_ops_for p = function
  | Scenarios.Map -> p.map_ops
  | Scenarios.Queue -> p.queue_ops

let filtered ?filter pool =
  match filter with
  | None -> pool
  | Some f ->
      List.filter
        (fun (e : Scenarios.entry) ->
          let len = String.length f in
          String.length e.Scenarios.id >= len
          && (String.sub e.Scenarios.id 0 len = f || e.Scenarios.id = f))
        pool

let entries ?filter () = filtered ?filter Scenarios.all
let fault_entries ?filter () = filtered ?filter Scenarios.fault_scenarios

let explore_entry ~pcso ~p (e : Scenarios.entry) =
  List.map
    (fun (sched_seed, mem_seed) ->
      let n_ops = n_ops_for p e.Scenarios.structure in
      let sc = e.Scenarios.build ~sched_seed ~mem_seed ~pcso ~n_ops in
      Explore.explore ~max_images_per_point:p.max_images sc)
    p.seeds

let find id =
  match Scenarios.find id with
  | Some e -> Some e.Scenarios.build
  | None -> Irscenarios.find id

let campaign = Report.campaign ~find ()

(* Shrink the outcome's first failure, print it as a replayable line and
   replay that line; returns whether the replay reproduced. *)
let report_shrunk ?fault_seeds ~n_ops ppf (o : Explore.outcome) =
  match o.Explore.failures with
  | [] -> true
  | f :: _ -> (
      let s =
        Obs.Cx.minimize
          (Report.campaign ?fault_seeds ~find ())
          (Report.witness_of ~n_ops o.Explore.scenario f, f.Explore.reason)
      in
      Fmt.pf ppf "    %a@." Report.pp_counterexample s;
      match s.Obs.Cx.parity with
      | Ok () -> true
      | Error m ->
          Fmt.pf ppf "    REPLAY DID NOT REPRODUCE (%s)@." m;
          false)

let run ?(pcso = true) ?filter ?(schedules = true) p ppf =
  Fmt.pf ppf "crash matrix (%s, %s)@."
    p.label
    (if pcso then "PCSO" else "word-granular ablation");
  let violations = ref 0 in
  List.iter
    (fun (e : Scenarios.entry) ->
      List.iter
        (fun (o : Explore.outcome) ->
          Fmt.pf ppf "  %a@." Report.pp_outcome o;
          if o.Explore.failures <> [] then begin
            violations := !violations + List.length o.Explore.failures;
            List.iteri
              (fun i f ->
                if i < 3 then Fmt.pf ppf "    %a@." Report.pp_failure f)
              o.Explore.failures;
            ignore
              (report_shrunk ~n_ops:(n_ops_for p e.Scenarios.structure) ppf o)
          end)
        (explore_entry ~pcso ~p e))
    (entries ?filter ());
  let sched_failures =
    if not schedules then []
    else
      List.concat_map
        (fun spec ->
          Schedule.sweep spec ~seeds:p.sched_seeds ~delays:p.sched_delays
            ~stride:p.sched_stride)
        Schedule.all_specs
  in
  if schedules then
    Fmt.pf ppf "  schedule sweeps: %d specs, %s@."
      (List.length Schedule.all_specs)
      (match sched_failures with
      | [] -> "ok"
      | fs -> Printf.sprintf "FAIL (%d)" (List.length fs));
  List.iter (fun f -> Fmt.pf ppf "    %a@." Schedule.pp_failure f) sched_failures;
  let ok = !violations = 0 && sched_failures = [] in
  Fmt.pf ppf "crash matrix %s: %s@." p.label
    (if ok then "PASS"
     else
       Printf.sprintf "FAIL (%d crash violations, %d schedule failures)"
         !violations
         (List.length sched_failures));
  ok

let ablation_check ?filter p ppf =
  Fmt.pf ppf "ablation asymmetry check (%s): word-granular write-back@."
    p.label;
  let ok = ref true in
  List.iter
    (fun (e : Scenarios.entry) ->
      let sched_seed, mem_seed = List.hd p.seeds in
      let n_ops = n_ops_for p e.Scenarios.structure in
      let sc = e.Scenarios.build ~sched_seed ~mem_seed ~pcso:false ~n_ops in
      (* A first failure settles the verdict for systems expected to
         break; only the ones expected to hold need the full sweep. *)
      let o =
        Explore.explore ~max_images_per_point:p.max_images
          ~stop_at_first_failure:(e.Scenarios.expect_ablation = `Breaks)
          sc
      in
      let broke = o.Explore.failures <> [] in
      let expected = e.Scenarios.expect_ablation = `Breaks in
      let verdict =
        match (broke, expected) with
        | true, true -> "breaks (expected: relies on PCSO)"
        | false, false -> "holds (expected: explicit flush ordering)"
        | true, false ->
            ok := false;
            "UNEXPECTED BREAK"
        | false, true ->
            ok := false;
            "UNEXPECTEDLY HOLDS (explorer lost its teeth?)"
      in
      Fmt.pf ppf "  %-18s boundaries=%-5d images=%-5d %s@." e.Scenarios.id
        o.Explore.boundaries o.Explore.images verdict;
      if broke then begin
        (match o.Explore.failures with
        | f :: _ -> Fmt.pf ppf "    first: %a@." Report.pp_failure f
        | [] -> ());
        if expected && not (report_shrunk ~n_ops ppf o) then ok := false
      end)
    (entries ?filter ());
  Fmt.pf ppf "ablation asymmetry: %s@." (if !ok then "PASS" else "FAIL");
  !ok

(* The fault-injection gate, in both directions. Integrity-mode worlds
   must survive every (crash image x fault plan): recovery either proves
   the exact snapshot or explicitly reports the damage. The planted
   no-verification mutant must *fail* under the same plans — if silent
   corruption sails through the trusting scan unnoticed by the oracle,
   the fault dimension has no teeth. Mutant counterexamples are shrunk
   and replayed like any other. *)
let faults_check ?filter p ppf =
  Fmt.pf ppf "fault-injection check (%s): seeds [%s]@." p.label
    (String.concat "; " (List.map string_of_int p.fault_seeds));
  let ok = ref true in
  List.iter
    (fun (e : Scenarios.entry) ->
      let sched_seed, mem_seed = List.hd p.seeds in
      let n_ops = n_ops_for p e.Scenarios.structure in
      let sc = e.Scenarios.build ~sched_seed ~mem_seed ~pcso:true ~n_ops in
      let o =
        Explore.explore ~max_images_per_point:p.max_images
          ~stop_at_first_failure:(e.Scenarios.expect_faults = `Breaks)
          ~fault_seeds:p.fault_seeds sc
      in
      let broke = o.Explore.failures <> [] in
      let expected = e.Scenarios.expect_faults = `Breaks in
      let verdict =
        match (broke, expected) with
        | false, false -> "detects (every fault detected or exactly repaired)"
        | true, true -> "breaks (expected: recovery skips verification)"
        | true, false ->
            ok := false;
            "SILENT CORRUPTION ESCAPED"
        | false, true ->
            ok := false;
            "MUTANT UNDETECTED (fault oracle lost its teeth?)"
      in
      Fmt.pf ppf "  %-24s boundaries=%-5d images=%-5d %s@." e.Scenarios.id
        o.Explore.boundaries o.Explore.images verdict;
      if broke then begin
        (match o.Explore.failures with
        | f :: _ -> Fmt.pf ppf "    first: %a@." Report.pp_failure f
        | [] -> ());
        if
          expected
          && not (report_shrunk ~fault_seeds:p.fault_seeds ~n_ops ppf o)
        then ok := false
      end)
    (fault_entries ?filter ());
  Fmt.pf ppf "fault injection: %s@." (if !ok then "PASS" else "FAIL");
  !ok

(* The pipelined-checkpointing gate, in both directions. Correct pipeline
   configurations (async epoch advance + double-buffered commits) must
   recover at every crash boundary — the boundary enumeration includes
   every pwb of the background walk, the commit-slot stores and the
   post-advance restart points, so the mid-overlap windows are visited
   exhaustively. The integrity-mode entry additionally replays the
   preset's media-fault plans against the two-slot commit protocol. The
   three planted protocol mutants must *fail*, and their counterexamples
   must shrink and replay — otherwise the overlap oracles have no teeth.
   The pipelined schedule sweep (preemption injection inside the overlap
   window) closes the check. *)
let pipeline_check ?filter p ppf =
  Fmt.pf ppf "pipelined checkpointing check (%s)@." p.label;
  let ok = ref true in
  let pool =
    List.filter
      (fun (e, _) -> filtered ?filter [ e ] <> [])
      Scenarios.pipeline_scenarios
  in
  List.iter
    (fun ((e : Scenarios.entry), expect) ->
      let sched_seed, mem_seed = List.hd p.seeds in
      let n_ops = n_ops_for p e.Scenarios.structure in
      let sc = e.Scenarios.build ~sched_seed ~mem_seed ~pcso:true ~n_ops in
      let fault_seeds =
        if e.Scenarios.expect_faults = `Detects then p.fault_seeds else []
      in
      let o =
        Explore.explore ~max_images_per_point:p.max_images
          ~stop_at_first_failure:(expect = `Breaks)
          ~fault_seeds sc
      in
      let broke = o.Explore.failures <> [] in
      let expected = expect = `Breaks in
      let verdict =
        match (broke, expected) with
        | false, false -> "holds (recovers at every mid-overlap boundary)"
        | true, true -> "breaks (expected: planted overlap-protocol mutant)"
        | true, false ->
            ok := false;
            "OVERLAP UNSAFE"
        | false, true ->
            ok := false;
            "MUTANT UNDETECTED (overlap oracle lost its teeth?)"
      in
      Fmt.pf ppf "  %-40s boundaries=%-5d images=%-5d %s@." e.Scenarios.id
        o.Explore.boundaries o.Explore.images verdict;
      if broke then begin
        (match o.Explore.failures with
        | f :: _ -> Fmt.pf ppf "    first: %a@." Report.pp_failure f
        | [] -> ());
        if expected && not (report_shrunk ~fault_seeds ~n_ops ppf o) then
          ok := false
      end)
    pool;
  let sched_failures =
    List.concat_map
      (fun spec ->
        Schedule.sweep spec ~seeds:p.sched_seeds ~delays:p.sched_delays
          ~stride:p.sched_stride)
      Schedule.pipeline_specs
  in
  Fmt.pf ppf "  pipeline schedule sweeps: %d specs, %s@."
    (List.length Schedule.pipeline_specs)
    (match sched_failures with
    | [] -> "ok"
    | fs -> Printf.sprintf "FAIL (%d)" (List.length fs));
  List.iter
    (fun f -> Fmt.pf ppf "    %a@." Schedule.pp_failure f)
    sched_failures;
  if sched_failures <> [] then ok := false;
  Fmt.pf ppf "pipelined checkpointing: %s@." (if !ok then "PASS" else "FAIL");
  !ok
