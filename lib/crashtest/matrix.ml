(* The crash matrix: every scenario × every crash boundary × every
   adversarial image, plus the schedule sweeps, behind two presets. Each
   dimension is a job list ({!Obs.Jobs}): one job per registry entry and
   seed pair, one per schedule spec, and a closing step that prints the
   summary and builds the JSON document.

   [Matrix] is the correctness gate (zero violations expected
   everywhere). The other three are one expectation check, run over three
   dimensions of the registry:
   - [Ablation_check] flips the world to word-granular write-back and
     checks the *asymmetry*: systems whose recovery leans on PCSO's
     same-line store ordering (ResPCT's InCLL, Quadra's in-line logging)
     must break, systems that persist each datum with explicit flushes
     before depending on it (Clobber's write-ahead undo log, SOFT's
     validity-tagged pnodes, FriedmanQueue) must keep passing. A matrix
     where everything passes under the ablation would mean the explorer
     cannot see persist-order bugs at all.
   - [Faults_check] layers the preset's media-fault plans on every crash
     image: integrity-mode recovery must prove the exact snapshot or
     explicitly report the damage, and the planted no-verification mutant
     must fail — if silent corruption sails through the trusting scan
     unnoticed, the fault dimension has no teeth.
   - [Pipeline_check] runs the pipelined-checkpointing worlds: correct
     configurations must recover at every boundary, mid-overlap windows
     included, the integrity entry also under the media-fault plans; the
     planted overlap-protocol mutants must fail. The pipelined schedule
     sweep (preemption injection inside the overlap window) closes it. *)

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

type dimension = Matrix | Ablation_check | Faults_check | Pipeline_check

let n_ops_for p = function
  | Scenarios.Map -> p.map_ops
  | Scenarios.Queue -> p.queue_ops

let find id =
  match Scenarios.find id with
  | Some e -> Some e.Scenarios.build
  | None -> Irscenarios.find id

let campaign = Report.campaign ~find ()

(* The outcome's first failure, shrunk and printed as a replayable line
   whose replay is checked: the lines, and whether it reproduced. *)
let shrunk ~fault_seeds ~n_ops (o : Explore.outcome) =
  match o.Explore.failures with
  | [] -> ("", true)
  | f :: _ ->
      let s =
        Obs.Cx.minimize
          (Report.campaign ~fault_seeds ~find ())
          (Report.witness_of ~n_ops o.Explore.scenario f, f.Explore.reason)
      in
      ( Fmt.str "    %a@." Report.pp_counterexample s
        ^ (match s.Obs.Cx.parity with
          | Ok () -> ""
          | Error m -> Fmt.str "    REPLAY DID NOT REPRODUCE (%s)@." m),
        s.Obs.Cx.parity = Ok () )

(* One schedule spec's sweep: its failures, which the closing step prints
   below the sweeps' summary line. *)
let sweep_job p spec () =
  let fs =
    Schedule.sweep spec ~seeds:p.sched_seeds ~delays:p.sched_delays
      ~stride:p.sched_stride
  in
  Obs.Jobs.result ~ok:(fs = []) ~count:(List.length fs)
    (String.concat ""
       (List.map (Fmt.str "    %a@." Schedule.pp_failure) fs))

(* One Matrix world: its row, its first three failures and the first one
   shrunk; [count] is its number of violations. *)
let matrix_job p (e : Scenarios.entry) (sched_seed, mem_seed) () =
  let n_ops = n_ops_for p e.Scenarios.structure in
  let o =
    Explore.explore ~max_images_per_point:p.max_images
      (e.Scenarios.build ~sched_seed ~mem_seed ~pcso:true ~n_ops)
  in
  let fs = o.Explore.failures in
  Obs.Jobs.result ~ok:(fs = []) ~count:(List.length fs)
    ~json:(Report.outcome_json o)
    (Fmt.str "  %a@." Report.pp_outcome o
    ^ String.concat ""
        (List.filteri (fun i _ -> i < 3) fs
        |> List.map (Fmt.str "    %a@." Report.pp_failure))
    ^ fst (shrunk ~fault_seeds:[] ~n_ops o))

(* One dimension of the expectation check: what its worlds run under, and
   how its rows read. *)
type check = {
  title : preset -> string;
  pcso : bool;
  fault_seeds : preset -> Scenarios.expect -> int list;
      (** media-fault plans layered on each crash image *)
  width : int;  (** of the id column *)
  holds : string;  (** verdict of an entry that held, as expected *)
  breaks : string;  (** broke, as expected *)
  escaped : string;  (** broke, but was expected to hold *)
  toothless : string;  (** held, but was expected to break *)
  sweeps : (string * Schedule.spec list) option;
      (** trailing schedule sweeps, with their label *)
  summary : string;
}

(* One entry of an expectation check, at the preset's first seed pair: it
   must meet its expectation. A first failure settles the verdict for
   entries expected to break; only the ones expected to hold need the
   full sweep. An expected break is shrunk and its printed line replayed
   — a mutant whose counterexample does not reproduce fails the check. *)
let check_job c p (e : Scenarios.entry) () =
  let sched_seed, mem_seed = List.hd p.seeds in
  let n_ops = n_ops_for p e.Scenarios.structure in
  let expected = e.Scenarios.expect = Scenarios.Breaks in
  let fault_seeds = c.fault_seeds p e.Scenarios.expect in
  let o =
    Explore.explore ~max_images_per_point:p.max_images
      ~stop_at_first_failure:expected ~fault_seeds
      (e.Scenarios.build ~sched_seed ~mem_seed ~pcso:c.pcso ~n_ops)
  in
  let broke = o.Explore.failures <> [] in
  let row =
    Fmt.str "  %-*s boundaries=%-5d images=%-5d %s@." c.width e.Scenarios.id
      o.Explore.boundaries o.Explore.images
      (match (broke, expected) with
      | false, false -> c.holds
      | true, true -> c.breaks
      | true, false -> c.escaped
      | false, true -> c.toothless)
  in
  let first, (cx, replayed) =
    match o.Explore.failures with
    | [] -> ("", ("", true))
    | f :: _ ->
        ( Fmt.str "    first: %a@." Report.pp_failure f,
          if expected then shrunk ~fault_seeds ~n_ops o else ("", true) )
  in
  Obs.Jobs.result ~ok:(broke = expected && replayed)
    ~json:(Report.outcome_json o) (row ^ first ^ cx)

let ablation =
  {
    title =
      (fun p ->
        Printf.sprintf
          "ablation asymmetry check (%s): word-granular write-back" p.label);
    pcso = false;
    fault_seeds = (fun _ _ -> []);
    width = 18;
    holds = "holds (expected: explicit flush ordering)";
    breaks = "breaks (expected: relies on PCSO)";
    escaped = "UNEXPECTED BREAK";
    toothless = "UNEXPECTEDLY HOLDS (explorer lost its teeth?)";
    sweeps = None;
    summary = "ablation asymmetry";
  }

let faults =
  {
    title =
      (fun p ->
        Printf.sprintf "fault-injection check (%s): seeds [%s]" p.label
          (String.concat "; " (List.map string_of_int p.fault_seeds)));
    pcso = true;
    fault_seeds = (fun p _ -> p.fault_seeds);
    width = 24;
    holds = "detects (every fault detected or exactly repaired)";
    breaks = "breaks (expected: recovery skips verification)";
    escaped = "SILENT CORRUPTION ESCAPED";
    toothless = "MUTANT UNDETECTED (fault oracle lost its teeth?)";
    sweeps = None;
    summary = "fault injection";
  }

let pipeline =
  {
    title =
      (fun p -> Printf.sprintf "pipelined checkpointing check (%s)" p.label);
    pcso = true;
    fault_seeds =
      (fun p x -> if x = Scenarios.Detects then p.fault_seeds else []);
    width = 40;
    holds = "holds (recovers at every mid-overlap boundary)";
    breaks = "breaks (expected: planted overlap-protocol mutant)";
    escaped = "OVERLAP UNSAFE";
    toothless = "MUTANT UNDETECTED (overlap oracle lost its teeth?)";
    sweeps = Some ("pipeline ", Schedule.pipeline_specs);
    summary = "pipelined checkpointing";
  }

let jobs ?filter ?(schedules = true) d p =
  (* as the JSON document names the dimension, its registry part, and the
     expectation it checks *)
  let name, registry, check =
    match d with
    | Matrix -> ("matrix", Scenarios.Ablation, None)
    | Ablation_check -> ("ablation-check", Scenarios.Ablation, Some ablation)
    | Faults_check -> ("faults", Scenarios.Faults, Some faults)
    | Pipeline_check -> ("pipeline", Scenarios.Pipeline, Some pipeline)
  in
  let known =
    List.filter
      (fun (e : Scenarios.entry) -> e.Scenarios.dimension = registry)
      Scenarios.all
  in
  let selected (e : Scenarios.entry) =
    Option.fold ~none:true
      ~some:(fun prefix -> String.starts_with ~prefix e.Scenarios.id)
      filter
  in
  match (List.filter selected known, filter) with
  | [], Some prefix ->
      Error
        (Fmt.str "unknown scenario %s (know: %s)" prefix
           (String.concat ", "
              (List.map (fun (e : Scenarios.entry) -> e.Scenarios.id) known)))
  | es, _ ->
      let worlds, title, sweeps =
        match check with
        | None ->
            ( List.concat_map (fun e -> List.map (matrix_job p e) p.seeds) es,
              Printf.sprintf "crash matrix (%s, PCSO)" p.label,
              Some ("", Schedule.all_specs) )
        | Some c -> (List.map (check_job c p) es, c.title p, c.sweeps)
      in
      let label, specs =
        match sweeps with
        | Some sweeps when schedules -> sweeps
        | _ -> ("", [])
      in
      let n = List.length worlds in
      let close rs =
        let w = Obs.Jobs.concat (Array.sub rs 0 n)
        and s = Obs.Jobs.concat (Array.sub rs n (List.length specs)) in
        let ok = w.Obs.Jobs.ok && s.Obs.Jobs.ok in
        let verdict =
          match check with
          | Some c -> c.summary ^ if ok then ": PASS" else ": FAIL"
          | None when ok -> Printf.sprintf "crash matrix %s: PASS" p.label
          | None ->
              Printf.sprintf
                "crash matrix %s: FAIL (%d crash violations, %d schedule \
                 failures)"
                p.label w.Obs.Jobs.count s.Obs.Jobs.count
        in
        let sweep_lines =
          if specs = [] then ""
          else
            Printf.sprintf "  %sschedule sweeps: %d specs, %s\n%s" label
              (List.length specs)
              (if s.Obs.Jobs.ok then "ok"
               else Printf.sprintf "FAIL (%d)" s.Obs.Jobs.count)
              s.Obs.Jobs.text
        in
        {
          w with
          Obs.Jobs.ok;
          text =
            String.concat ""
              [ title; "\n"; w.Obs.Jobs.text; sweep_lines; verdict; "\n" ];
          json =
            Obs.Json.(
              Obj
                [
                  ("schema", String "respct-crashmatrix/v1");
                  ("preset", String p.label);
                  ("dimension", String name);
                  ("worlds", w.Obs.Jobs.json);
                ]);
        }
      in
      Ok
        {
          Obs.Jobs.jobs = Array.of_list (worlds @ List.map (sweep_job p) specs);
          close;
        }
