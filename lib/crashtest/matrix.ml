(* The crash matrix: every scenario × every crash boundary × every
   adversarial image, plus the schedule sweeps, behind two presets.

   [run] is the correctness gate (zero violations expected everywhere).
   [check] is the one expectation check, run over three dimensions of the
   registry:
   - [ablation_check] flips the world to word-granular write-back and
     checks the *asymmetry*: systems whose recovery leans on PCSO's
     same-line store ordering (ResPCT's InCLL, Quadra's in-line logging)
     must break, systems that persist each datum with explicit flushes
     before depending on it (Clobber's write-ahead undo log, SOFT's
     validity-tagged pnodes, FriedmanQueue) must keep passing. A matrix
     where everything passes under the ablation would mean the explorer
     cannot see persist-order bugs at all.
   - [faults_check] layers the preset's media-fault plans on every crash
     image: integrity-mode recovery must prove the exact snapshot or
     explicitly report the damage, and the planted no-verification mutant
     must fail — if silent corruption sails through the trusting scan
     unnoticed, the fault dimension has no teeth.
   - [pipeline_check] runs the pipelined-checkpointing worlds: correct
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

let n_ops_for p = function
  | Scenarios.Map -> p.map_ops
  | Scenarios.Queue -> p.queue_ops

let entries ?filter dimension =
  List.filter
    (fun (e : Scenarios.entry) ->
      e.Scenarios.dimension = dimension
      &&
      match filter with
      | None -> true
      | Some prefix -> String.starts_with ~prefix e.Scenarios.id)
    Scenarios.all

let find id =
  match Scenarios.find id with
  | Some e -> Some e.Scenarios.build
  | None -> Irscenarios.find id

let campaign = Report.campaign ~find ()

(* Shrink the outcome's first failure, print it as a replayable line and
   replay that line; returns whether the replay reproduced. *)
let report_shrunk ~fault_seeds ~n_ops ppf (o : Explore.outcome) =
  match o.Explore.failures with
  | [] -> true
  | f :: _ -> (
      let s =
        Obs.Cx.minimize
          (Report.campaign ~fault_seeds ~find ())
          (Report.witness_of ~n_ops o.Explore.scenario f, f.Explore.reason)
      in
      Fmt.pf ppf "    %a@." Report.pp_counterexample s;
      match s.Obs.Cx.parity with
      | Ok () -> true
      | Error m ->
          Fmt.pf ppf "    REPLAY DID NOT REPRODUCE (%s)@." m;
          false)

(* The trailing schedule sweeps: one summary line, then every failure. *)
let sweep ~label specs p ppf =
  let failures =
    List.concat_map
      (fun spec ->
        Schedule.sweep spec ~seeds:p.sched_seeds ~delays:p.sched_delays
          ~stride:p.sched_stride)
      specs
  in
  Fmt.pf ppf "  %sschedule sweeps: %d specs, %s@." label (List.length specs)
    (match failures with
    | [] -> "ok"
    | fs -> Printf.sprintf "FAIL (%d)" (List.length fs));
  List.iter (fun f -> Fmt.pf ppf "    %a@." Schedule.pp_failure f) failures;
  failures

let run ?filter ?(schedules = true) ?(record = ignore) p ppf =
  Fmt.pf ppf "crash matrix (%s, PCSO)@." p.label;
  let violations = ref 0 in
  List.iter
    (fun (e : Scenarios.entry) ->
      let n_ops = n_ops_for p e.Scenarios.structure in
      List.iter
        (fun (o : Explore.outcome) ->
          record o;
          Fmt.pf ppf "  %a@." Report.pp_outcome o;
          if o.Explore.failures <> [] then begin
            violations := !violations + List.length o.Explore.failures;
            List.iteri
              (fun i f ->
                if i < 3 then Fmt.pf ppf "    %a@." Report.pp_failure f)
              o.Explore.failures;
            ignore (report_shrunk ~fault_seeds:[] ~n_ops ppf o)
          end)
        (List.map
           (fun (sched_seed, mem_seed) ->
             Explore.explore ~max_images_per_point:p.max_images
               (e.Scenarios.build ~sched_seed ~mem_seed ~pcso:true ~n_ops))
           p.seeds))
    (entries ?filter Scenarios.Ablation);
  let sched_failures =
    if schedules then sweep ~label:"" Schedule.all_specs p ppf else []
  in
  let ok = !violations = 0 && sched_failures = [] in
  Fmt.pf ppf "crash matrix %s: %s@." p.label
    (if ok then "PASS"
     else
       Printf.sprintf "FAIL (%d crash violations, %d schedule failures)"
         !violations
         (List.length sched_failures));
  ok

(* One dimension of the expectation check: what its worlds run under, and
   how its rows read. *)
type check = {
  dimension : Scenarios.dimension;
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

(* Every entry of the dimension runs once, at the preset's first seed
   pair, and must meet its expectation. A first failure settles the
   verdict for entries expected to break; only the ones expected to hold
   need the full sweep. An expected break is shrunk and its printed line
   replayed — a mutant whose counterexample does not reproduce fails the
   check. *)
let check c ?filter ?(schedules = true) ?(record = ignore) p ppf =
  Fmt.pf ppf "%s@." (c.title p);
  let ok = ref true in
  List.iter
    (fun (e : Scenarios.entry) ->
      let sched_seed, mem_seed = List.hd p.seeds in
      let n_ops = n_ops_for p e.Scenarios.structure in
      let expected = e.Scenarios.expect = Scenarios.Breaks in
      let fault_seeds = c.fault_seeds p e.Scenarios.expect in
      let o =
        Explore.explore ~max_images_per_point:p.max_images
          ~stop_at_first_failure:expected ~fault_seeds
          (e.Scenarios.build ~sched_seed ~mem_seed ~pcso:c.pcso ~n_ops)
      in
      record o;
      let broke = o.Explore.failures <> [] in
      if broke <> expected then ok := false;
      Fmt.pf ppf "  %-*s boundaries=%-5d images=%-5d %s@." c.width
        e.Scenarios.id o.Explore.boundaries o.Explore.images
        (match (broke, expected) with
        | false, false -> c.holds
        | true, true -> c.breaks
        | true, false -> c.escaped
        | false, true -> c.toothless);
      match o.Explore.failures with
      | [] -> ()
      | f :: _ ->
          Fmt.pf ppf "    first: %a@." Report.pp_failure f;
          if expected && not (report_shrunk ~fault_seeds ~n_ops ppf o) then
            ok := false)
    (entries ?filter c.dimension);
  (match c.sweeps with
  | Some (label, specs) when schedules ->
      if sweep ~label specs p ppf <> [] then ok := false
  | _ -> ());
  Fmt.pf ppf "%s: %s@." c.summary (if !ok then "PASS" else "FAIL");
  !ok

let ablation_check =
  check
    {
      dimension = Scenarios.Ablation;
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

let faults_check =
  check
    {
      dimension = Scenarios.Faults;
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

let pipeline_check =
  check
    {
      dimension = Scenarios.Pipeline;
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
