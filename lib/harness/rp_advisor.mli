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
  needs_logging : int list;  (** addresses with a WAR segment somewhere *)
  write_only : int list;  (** persistent but WAR-free: add_modified suffices *)
  races : Analysis.Racecheck.race list;
  segments : int;  (** RP-delimited segments analysed *)
}

(* Per-thread segmentation: a Restart_point event closes the current
   segment. Classification is cumulative across segments: one WAR segment
   anywhere makes the address require logging. *)
val analyse : ?addr_filter:(int -> bool) -> Simnvm.Event.t list -> report

(* Static/dynamic cross-check for analysed IR programs.

   The static analyzer (Analysis.Warstatic/Placement) and this trace
   advisor automate the same section 3.3.2 rule from opposite ends: one
   over all CFG paths, one over a single recorded execution. Soundness
   of the static side means every variable the dynamic advisor finds
   WAR must already be in the static plan's logging set; the converse
   need not hold (the static side may-overapproximates paths the run
   did not take). *)
type ir_cross_check = {
  cc_static_log : string list;  (** plan.log, sorted *)
  cc_dynamic_log : string list;  (** advisor needs_logging, as variables *)
  cc_dynamic_only : string list;  (** dynamic \ static: must be empty *)
  cc_agrees : bool;
  cc_races : Analysis.Racecheck.race list;  (** on persistent data words *)
  cc_segments : int;
}

val cross_check_ir :
  ?sched_seed:int ->
  ?mem_seed:int ->
  ?pcso:bool ->
  n_ops:int ->
  (iters:int -> Analysis.Ir.program) ->
  ir_cross_check
