type report = {
  needs_logging : int list;
  write_only : int list;
  races : Analysis.Racecheck.race list;
  segments : int;
}

let analyse ?(addr_filter = fun (_ : int) -> true) events =
  let war : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let written : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let reads_in_segment : (int, (int, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8 (* per thread: addresses read before being written *)
  in
  let writes_in_segment : (int, (int, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let segments = ref 0 in
  let tbl_of store tid =
    match Hashtbl.find_opt store tid with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 32 in
        Hashtbl.add store tid t;
        t
  in
  let checker = Analysis.Racecheck.create () in
  List.iter
    (fun ev ->
      match ev with
      | Simnvm.Event.Load { tid; addr } when addr_filter addr ->
          let ws = tbl_of writes_in_segment tid in
          if not (Hashtbl.mem ws addr) then
            Hashtbl.replace (tbl_of reads_in_segment tid) addr ();
          Analysis.Racecheck.push checker
            (Analysis.Racecheck.Rread { thread = tid; addr })
      | Simnvm.Event.Store { tid; addr } when addr_filter addr ->
          Hashtbl.replace written addr ();
          if Hashtbl.mem (tbl_of reads_in_segment tid) addr then
            Hashtbl.replace war addr ();
          Hashtbl.replace (tbl_of writes_in_segment tid) addr ();
          Analysis.Racecheck.push checker
            (Analysis.Racecheck.Rwrite { thread = tid; addr })
      | Simnvm.Event.Acquire { tid; lock } ->
          Analysis.Racecheck.push checker
            (Analysis.Racecheck.Racq { thread = tid; lock })
      | Simnvm.Event.Release { tid; lock } ->
          Analysis.Racecheck.push checker
            (Analysis.Racecheck.Rrel { thread = tid; lock })
      | Simnvm.Event.Restart_point { tid; id = _ } ->
          incr segments;
          Hashtbl.remove reads_in_segment tid;
          Hashtbl.remove writes_in_segment tid
      (* An Rmw marker follows the load/store the memory already published
         for the atomic op, so the access itself is accounted above;
         persistence instructions, cache outcomes and compute charges carry
         no WAR information. *)
      | _ -> ())
    events;
  let needs_logging =
    Hashtbl.fold (fun a () acc -> a :: acc) war [] |> List.sort compare
  in
  let write_only =
    Hashtbl.fold
      (fun a () acc -> if Hashtbl.mem war a then acc else a :: acc)
      written []
    |> List.sort compare
  in
  {
    needs_logging;
    write_only;
    races = Analysis.Racecheck.races checker;
    segments = !segments;
  }

(* ------------------------------------------------------------------ *)
(* Static/dynamic cross-check for analysed IR programs *)

type ir_cross_check = {
  cc_static_log : string list;
  cc_dynamic_log : string list;
  cc_dynamic_only : string list;
  cc_agrees : bool;
  cc_races : Analysis.Racecheck.race list;
  cc_segments : int;
}

let cross_check_ir ?sched_seed ?mem_seed ?pcso ~n_ops prog : ir_cross_check =
  let p, plan = Analysis.Placement.infer (prog ~iters:n_ops) in
  let w = Analysis.Exec.sim_world ?sched_seed ?mem_seed ?pcso ~plan p in
  let (), events = Simnvm.Event.record w.Analysis.Exec.w_bus (fun () ->
      w.Analysis.Exec.w_run ())
  in
  let var_of_addr =
    List.map (fun (v, a) -> (a, v)) (w.Analysis.Exec.w_var_addrs ())
  in
  let rep =
    analyse ~addr_filter:(fun a -> List.mem_assoc a var_of_addr) events
  in
  let dynamic_log =
    List.filter_map (fun a -> List.assoc_opt a var_of_addr) rep.needs_logging
    |> List.sort_uniq compare
  in
  let static_log =
    Analysis.Dataflow.Vars.elements plan.Analysis.Placement.log
  in
  let dynamic_only =
    List.filter (fun v -> not (List.mem v static_log)) dynamic_log
  in
  {
    cc_static_log = static_log;
    cc_dynamic_log = dynamic_log;
    cc_dynamic_only = dynamic_only;
    cc_agrees = dynamic_only = [];
    cc_races = rep.races;
    cc_segments = rep.segments;
  }
