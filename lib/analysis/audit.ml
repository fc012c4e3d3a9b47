type report = {
  needs_logging : int list;
  write_only : int list;
  races : Racecheck.race list;
  segments : int;
}

let watch bus f =
  let war = Idempotence.create () in
  let checker = Racecheck.create () in
  let on_event ev =
    match ev with
    | Simnvm.Event.Load { tid; addr } ->
        Idempotence.read war ~tid addr;
        Racecheck.push checker ev
    | Simnvm.Event.Store { tid; addr } ->
        Idempotence.write war ~tid addr;
        Racecheck.push checker ev
    | Simnvm.Event.Acquire _ | Simnvm.Event.Release _ ->
        Racecheck.push checker ev
    | Simnvm.Event.Restart_point { tid; id = _ } ->
        Idempotence.restart_point war ~tid
    (* An Rmw marker follows the load/store the memory already published
       for the atomic op, so the access itself is accounted above;
       persistence instructions, cache outcomes and compute charges carry
       no WAR information. *)
    | _ -> ()
  in
  let id = Simnvm.Event.subscribe bus on_event in
  let v = Fun.protect ~finally:(fun () -> Simnvm.Event.unsubscribe bus id) f in
  ( v,
    {
      needs_logging = Idempotence.war war;
      write_only = Idempotence.write_only war;
      races = Racecheck.races checker;
      segments = Idempotence.segments war;
    } )

(* ------------------------------------------------------------------ *)
(* Static/dynamic cross-check for analysed IR programs *)

type ir_cross_check = {
  cc_static_log : string list;
  cc_dynamic_log : string list;
  cc_agrees : bool;
  cc_races : Racecheck.race list;
  cc_segments : int;
}

let logs_agree ~static ~dynamic =
  List.sort_uniq compare static = List.sort_uniq compare dynamic

let cross_check_ir ?sched_seed ?mem_seed ?pcso ~n_ops prog : ir_cross_check =
  let p, plan = Placement.infer (prog ~iters:n_ops) in
  let w = Exec.sim_world ?sched_seed ?mem_seed ?pcso ~plan p in
  (* The run allocates the variables' words, so the report is narrowed
     to their addresses afterwards. *)
  let (), rep = watch w.Exec.w_bus w.Exec.w_run in
  let var_of_addr = List.map (fun (v, a) -> (a, v)) (w.Exec.w_var_addrs ()) in
  let dynamic_log =
    List.filter_map (fun a -> List.assoc_opt a var_of_addr) rep.needs_logging
    |> List.sort_uniq compare
  in
  let static_log = Dataflow.Vars.elements plan.Placement.log in
  {
    cc_static_log = static_log;
    cc_dynamic_log = dynamic_log;
    cc_agrees = logs_agree ~static:static_log ~dynamic:dynamic_log;
    cc_races =
      List.filter
        (fun r -> List.mem_assoc r.Racecheck.addr var_of_addr)
        rep.races;
    cc_segments = rep.segments;
  }
