(** Crash scenarios for statically analysed IR programs.

    The bridge between {!Analysis.Placement}'s inferred instrumentation
    plans and the explorer: each corpus program is instrumented exactly
    as its plan says (via {!Analysis.Exec.sim_world}) and held to the
    last-checkpoint durability oracle, so "the static analyzer's plan
    survives crash exploration" is a checked property. [strip_log]
    plants the one-logging-site-removed mutant the lint must also
    reject. These scenarios live outside {!Scenarios.all} so the matrix
    goldens stay pinned; [# crashmatrix] counterexamples resolve them
    through {!find}. *)

val find : string -> Report.builder option
(** Resolve a [corpus] id (as printed in replay lines) to its builder;
    every id [corpus] returns resolves. *)

type verdict = {
  plan_ok : bool;
  plan_failures : Explore.failure list;
  mutant_caught_static : bool;  (** lint flags [War_missing_logging] *)
  mutant_counterexample : Report.witness Obs.Cx.shrunk option;
      (** shrunk dynamic counterexample; [None] means the mutant
          survived exploration *)
}

val check_program :
  ?sched_seed:int ->
  ?mem_seed:int ->
  ?pcso:bool ->
  ?n_ops:int ->
  ?name:string ->
  (iters:int -> Analysis.Ir.program) ->
  verdict
(** The both-directions gate: the inferred plan must survive
    exploration and the stripped mutant must be caught both statically
    and dynamically. *)
