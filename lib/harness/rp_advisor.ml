(* Automation of the paper's section 3.3.2 rules over recorded executions —
   the future-work direction of its section 6.

   Given the event stream of a simulated run (Simnvm.Event), the advisor:

   - splits each thread's accesses into restart-point-delimited segments
     and applies the WAR rule per segment: any address read before its
     first write within a segment needs InCLL logging; addresses only
     written need tracking (add_modified); the rest of the persistent state
     needs nothing;
   - feeds the lock and access events to the vector-clock race checker,
     validating the race-freedom assumption of section 2.1 that the whole
     ResPCT design rests on.

   Instrumentation sanity in this repository's own tests: the advisor run
   over the ResPCT queue and hash map confirms that exactly the variables
   we made InCLL variables are the ones the rule demands. *)

type report = {
  needs_logging : int list; (* addresses with a WAR segment somewhere *)
  write_only : int list; (* persistent but WAR-free: add_modified suffices *)
  races : Analysis.Racecheck.race list;
  segments : int; (* RP-delimited segments analysed *)
}

(* Per-thread segmentation: a Restart_point event closes the current
   segment. Classification is cumulative across segments: one WAR segment
   anywhere makes the address require logging. *)
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

(* Subscriber-style capture: attach a recorder to the world's event bus,
   run the workload, analyse what was seen. The advisor is just one more
   subscriber; other subscribers on the same bus are unaffected. *)
let capture ?addr_filter bus f =
  let v, events = Simnvm.Event.record bus f in
  (v, analyse ?addr_filter events)

(* ------------------------------------------------------------------ *)
(* Static/dynamic cross-check for analysed IR programs.

   The static analyzer (Analysis.Warstatic/Placement) and this trace
   advisor automate the same section 3.3.2 rule from opposite ends: one
   over all CFG paths, one over a single recorded execution. Soundness
   of the static side means every variable the dynamic advisor finds
   WAR must already be in the static plan's logging set; the converse
   need not hold (the static side may-overapproximates paths the run
   did not take). *)

type ir_cross_check = {
  cc_static_log : string list;  (* plan.log, sorted *)
  cc_dynamic_log : string list; (* advisor needs_logging, as variables *)
  cc_dynamic_only : string list; (* dynamic \ static: must be empty *)
  cc_agrees : bool;
  cc_races : Analysis.Racecheck.race list; (* on persistent data words *)
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
