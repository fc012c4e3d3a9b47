(** The recorded-run audit — the paper's section 6 future work: one
    subscriber on a world's {!Simnvm.Event} bus checks the section 3.3.2
    rule and the section 2.1 race-freedom assumption as events arrive.
    It feeds the {!Idempotence} automaton, keyed by address (a
    [Restart_point] closes its thread's segment), and {!Racecheck}.

    The repository's own tests run it over the ResPCT queue and hash map:
    exactly the variables made InCLL variables are the ones the rule
    demands, and the map's shared accesses are race-free. *)

type report = {
  needs_logging : int list;  (** addresses with a WAR segment, sorted *)
  write_only : int list;  (** written, never WAR: add_modified suffices *)
  races : Racecheck.race list;
  segments : int;  (** [Restart_point] events seen *)
}

val watch : Simnvm.Event.bus -> (unit -> 'a) -> 'a * report
(** [watch bus f] runs [f] with the audit subscribed to [bus] and
    detaches it on every exit path. Every load and store is audited; a
    caller interested in some addresses narrows the report afterwards,
    which equals auditing only those: an address's verdict and races
    depend on its own accesses alone (happens-before changes only at
    acquires and releases, which always count). *)

(** {2 Static/dynamic cross-check for analysed IR programs}

    {!Placement} and the audit automate the section 3.3.2 rule from
    opposite ends: one over all CFG paths, one over a single execution.
    Soundness of the static side means every variable the audit finds
    WAR is in the static plan's logging set. A static side that
    over-approximates paths the run did not take would log more, but so
    would a run whose audit under-reports, so the two agree only when
    the logs are equal, as they are on the corpus, whose runs take every
    path. *)

val logs_agree : static:string list -> dynamic:string list -> bool
(** Whether the two logs name the same variables. *)

type ir_cross_check = {
  cc_static_log : string list;  (** plan.log, sorted *)
  cc_dynamic_log : string list;  (** the audit's needs_logging, as variables *)
  cc_agrees : bool;  (** {!logs_agree} of the two logs *)
  cc_races : Racecheck.race list;  (** on persistent data words *)
  cc_segments : int;
}

val cross_check_ir :
  ?sched_seed:int ->
  ?mem_seed:int ->
  ?pcso:bool ->
  n_ops:int ->
  (iters:int -> Ir.program) ->
  ir_cross_check
(** Infer the plan of [prog ~iters:n_ops], run it in {!Exec.sim_world}
    under {!watch} and compare. *)
