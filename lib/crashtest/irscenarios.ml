(* Crash scenarios for statically analysed IR programs: the bridge
   between [Analysis.Placement]'s inferred instrumentation plans and the
   explorer's adversarial crash/image enumeration. Each corpus program
   is instrumented exactly as its plan says, run through
   [Analysis.Exec.sim_world], and held to the last-checkpoint oracle —
   so "the static analyzer's plan survives crashmatrix" is a checked
   property, not a convention. The [strip_log] scenarios plant the
   one-logging-site-removed mutant the lint must also reject. *)

let scenario ?(strip_log = []) ~name ~sched_seed ~mem_seed ~pcso ~n_ops
    (program : iters:int -> Analysis.Ir.program) : Explore.scenario =
  let make ~n_ops =
    let p, plan = Analysis.Placement.infer (program ~iters:n_ops) in
    let w =
      Analysis.Exec.sim_world ~sched_seed ~mem_seed ~pcso ~strip_log ~plan p
    in
    {
      Explore.mem = w.Analysis.Exec.w_mem;
      run = w.Analysis.Exec.w_run;
      completed = w.Analysis.Exec.w_completed;
      recover_check = w.Analysis.Exec.w_recover_check;
      recover_check_faulty = None;
      oracle_key = None;
    }
  in
  { Explore.name; sched_seed; mem_seed; pcso; n_ops; make }

(* Strip the alphabetically first logged variable: the canonical
   one-logging-site-removed mutant. *)
let strip_of (plan : Analysis.Placement.plan) =
  match Analysis.Dataflow.Vars.min_elt_opt plan.Analysis.Placement.log with
  | Some v -> [ v ]
  | None -> []

(* Every corpus program under its inferred plan, plus its stripped
   mutant, by id. [corpus] and [find] both read this one table, so a
   printed id always resolves. Kept out of [Scenarios.all] so the matrix
   goldens stay pinned. *)
let table : (string * Report.builder) list =
  List.concat_map
    (fun (cname, prog) ->
      let base = "ir-" ^ cname in
      let mutant = base ^ "-striplog" in
      [
        ( base,
          fun ~sched_seed ~mem_seed ~pcso ~n_ops ->
            scenario ~name:base ~sched_seed ~mem_seed ~pcso ~n_ops prog );
        ( mutant,
          fun ~sched_seed ~mem_seed ~pcso ~n_ops ->
            let _, plan = Analysis.Placement.infer (prog ~iters:n_ops) in
            scenario ~strip_log:(strip_of plan) ~name:mutant ~sched_seed
              ~mem_seed ~pcso ~n_ops prog );
      ])
    Analysis.Corpus.all

let find id = List.assoc_opt id table

(* Both-directions gate for one program: the inferred plan must survive
   exploration, and the stripped mutant must fail it (and be caught
   statically by the lint). Returns the mutant's shrunk counterexample
   for replay printing. *)
type verdict = {
  plan_ok : bool;
  plan_failures : Explore.failure list;
  mutant_caught_static : bool;
  mutant_counterexample : Report.witness Obs.Cx.shrunk option;
}

let check_program ?(sched_seed = 5) ?(mem_seed = 7) ?(pcso = true)
    ?(n_ops = 8) ?(name = "ir-program")
    (prog : iters:int -> Analysis.Ir.program) : verdict =
  let p, plan = Analysis.Placement.infer (prog ~iters:n_ops) in
  let good = scenario ~name ~sched_seed ~mem_seed ~pcso ~n_ops prog in
  let good_outcome = Explore.explore good in
  let stripped = strip_of plan in
  let mutant_plan =
    {
      plan with
      Analysis.Placement.log =
        Analysis.Dataflow.Vars.diff plan.Analysis.Placement.log
          (Analysis.Dataflow.Vars.of_list stripped);
    }
  in
  let mutant_caught_static =
    List.exists
      (fun (f : Analysis.Lint.finding) ->
        f.Analysis.Lint.rule = Analysis.Lint.War_missing_logging)
      (Analysis.Lint.run ~plan:mutant_plan p)
  in
  let mutant_name = name ^ "-striplog" in
  let rebuild ~sched_seed ~mem_seed ~pcso ~n_ops =
    scenario ~strip_log:stripped ~name:mutant_name ~sched_seed ~mem_seed
      ~pcso ~n_ops prog
  in
  let mutant = rebuild ~sched_seed ~mem_seed ~pcso ~n_ops in
  let mutant_counterexample =
    match
      (Explore.explore ~stop_at_first_failure:true mutant).Explore.failures
    with
    | [] -> None
    | f :: _ ->
        let find id = if id = mutant_name then Some rebuild else None in
        Some
          (Obs.Cx.minimize (Report.campaign ~find ())
             (Report.witness_of ~n_ops mutant f, f.Explore.reason))
  in
  {
    plan_ok = good_outcome.Explore.failures = [];
    plan_failures = good_outcome.Explore.failures;
    mutant_caught_static;
    mutant_counterexample;
  }
