(* The analyze campaign: one job per corpus program (infer the plan, lint
   it, and optionally summarise its persist states and cross-check it
   against a recorded run), closed by the planted mutant's verdict. *)

let expected_rule = function
  | Flushlint.Strip_psync -> Lint.Flush_missing_psync_publish
  | Flushlint.Inject_redundant_pwb -> Lint.Flush_redundant_pwb

let program_job ?mutant ?strip ~iters ~dynamic ~persistency (name, prog) () =
  let base = prog ~iters in
  let p, plan =
    Placement.infer
      (Option.fold ~none:base ~some:(fun m -> Flushlint.plant m base) mutant)
  in
  let plan =
    match strip with
    | None -> plan
    | Some v ->
        { plan with Placement.log = Dataflow.Vars.remove v plan.Placement.log }
  in
  let findings = Lint.run ~plan p in
  let errors = Lint.errors findings in
  let hits m =
    List.length
      (List.filter (fun (f : Lint.finding) -> f.Lint.rule = expected_rule m)
         findings)
  in
  let pers_text, pers_json =
    if not persistency then ("", [])
    else
      let s = Persistate.summarize (Persistate.create p) in
      ( Fmt.str "%a@." Persistate.pp_summary s,
        [ ("persistency", Persistate.summary_to_json s) ] )
  in
  let dyn_text, dyn_json, agrees =
    if not dynamic then ("", [], true)
    else
      let cc = Audit.cross_check_ir ~n_ops:iters prog in
      ( Fmt.str
          "dynamic cross-check: %s (static log {%s} / dynamic {%s}), %d \
           race(s)@."
          (if cc.Audit.cc_agrees then "agrees" else "DISAGREES")
          (String.concat ", " cc.Audit.cc_static_log)
          (String.concat ", " cc.Audit.cc_dynamic_log)
          (List.length cc.Audit.cc_races),
        Obs.Json.
          [
            ( "dynamic",
              Obj
                [
                  ("agrees", Bool cc.Audit.cc_agrees);
                  ( "dynamic_log",
                    List (List.map (fun v -> String v) cc.Audit.cc_dynamic_log)
                  );
                  ("races", Int (List.length cc.Audit.cc_races));
                  ("segments", Int cc.Audit.cc_segments);
                ] );
          ],
        cc.Audit.cc_agrees )
  in
  Obs.Jobs.result ~ok:(errors = [] && agrees)
    ~count:(Option.fold ~none:0 ~some:hits mutant)
    ~json:
      (Obs.Json.Obj
         (("name", Obs.Json.String name)
          :: ("plan", Placement.plan_to_json p plan)
          :: ("lint", Lint.to_json p findings)
          :: (pers_json @ dyn_json)))
    (Fmt.str "== %s ==@.%a@." name Placement.pp_plan plan
    ^ String.concat "" (List.map (Fmt.str "%a@." Lint.pp_finding) findings)
    ^ (if errors = [] then ""
       else Fmt.str "%d error(s)@." (List.length errors))
    ^ pers_text ^ dyn_text)

let jobs ?program ?mutant ?strip ?(iters = 8) ?(dynamic = false)
    ?(persistency = false) () =
  let corpus = Corpus.all @ Corpus.flush_corpus in
  match
    List.filter
      (fun (n, _) -> Option.fold ~none:true ~some:(String.equal n) program)
      corpus
  with
  | [] ->
      Error
        (Fmt.str "unknown program %s (know: %s)" (Option.get program)
           (String.concat ", " (List.map fst corpus)))
  | selected ->
      let close rs =
        let all = Obs.Jobs.concat rs in
        let verdict =
          match mutant with
          | None -> ""
          | Some m ->
              let mname = Flushlint.mutant_name m
              and rule = Lint.rule_name (expected_rule m) in
              if all.Obs.Jobs.count > 0 then
                Fmt.str "mutant %s caught statically: %d %s finding(s)@." mname
                  all.Obs.Jobs.count rule
              else Fmt.str "mutant %s NOT caught (no %s finding)@." mname rule
        in
        {
          all with
          Obs.Jobs.ok = all.Obs.Jobs.ok && all.Obs.Jobs.count = 0;
          text = all.Obs.Jobs.text ^ verdict;
          json =
            Obs.Json.(
              Obj
                [
                  ("schema", String "respct-analyze/v2");
                  ("programs", all.Obs.Jobs.json);
                ]);
        }
      in
      Ok
        {
          Obs.Jobs.jobs =
            Array.of_list
              (List.map
                 (program_job ?mutant ?strip ~iters ~dynamic ~persistency)
                 selected);
          close;
        }
