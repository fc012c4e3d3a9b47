(** Automatic restart-point insertion and InCLL-logging inference —
    the static automation of the paper's section 6 future work.

    [infer] first places one restart point at the end of each outermost
    loop body that mutates persistent state and has none (the paper's
    per-iteration checkpoint discipline), plus a final restart point in
    any persistent-writing thread still without one; points are only
    placed where the syntactic may-held lockset is empty, matching the
    runtime's requirement that restart points sit at lock-free
    quiescence. [plan] then applies the section 3.3.2 rule over the
    {!Warstatic} results: every may-WAR persistent variable is logged
    (InCLL), every other written persistent variable is merely tracked
    ([add_modified] without logging), and RAW-only variables are never
    logged — the minimal sound instrumentation set. *)

module Vars = Dataflow.Vars

type plan = {
  plan_program : string;
  log : Vars.t;  (** persistent vars needing InCLL logging *)
  track : Vars.t;  (** persistent vars written but RAW-only *)
}

val plan : Ir.program -> plan
(** Assumes restart points are already in place. *)

val infer : Ir.program -> Ir.program * plan
(** Restart-point insertion followed by [plan] on the instrumented
    program. *)

val plan_to_json : Ir.program -> plan -> Obs.Json.t
(** Machine-readable instrumentation plan, schema [respct-plan/v1]. *)

val pp_plan : plan Fmt.t
