(** Persistency lint: typed findings over an IR program, combining the
    {!Warstatic} WAR analysis, the {!Lockset} analyses and a
    constant-condition dead-code walk, optionally validated against a
    {!Placement.plan}. Rendered via {!Obs.Json} behind the [analyze]
    CLI subcommand; errors are what the CI lint gate fails on. *)

type severity = Error | Warning

type rule =
  | Ill_formed  (** {!Ir.check} diagnostics; suppresses further rules *)
  | Store_outside_region
      (** persistent store with no restart point on any path before or
          after it *)
  | War_missing_logging
      (** may-WAR persistent write whose variable the plan does not log *)
  | Write_untracked
      (** persistent write neither logged nor [add_modified]-tracked *)
  | Release_unheld
  | Lock_leak
  | Rp_in_critical_section
  | Unreachable_rp
  | Lockset_race
  | Flush_missing_pwb_at_rp
      (** persistent var may be dirty at a restart point
          ({!Flushlint.Missing_pwb_at_rp}) *)
  | Flush_missing_psync_publish
  | Flush_redundant_pwb
  | Flush_psync_no_pending
  | Flush_torn_cross_line
  | Flush_persist_order_race

type finding = {
  rule : rule;
  severity : severity;
  thread : string option;
  var : Ir.var option;
  lock : int option;
  rp : int option;
  site : string option;  (** CFG breadcrumb, e.g. ["main[1].body[0]"] *)
  message : string;
}

val run :
  ?plan:Placement.plan -> ?lines:(Ir.var -> int) -> Ir.program -> finding list
(** Without [?plan], plan-conformance rules are skipped. [lines] is the
    cache-line layout for the flush-discipline rules (see
    {!Persistate.create}). The result is normalized: sorted on every
    identifying field and deduped by (rule, thread, site, var, lock,
    rp), so the JSON report is byte-deterministic. *)

val errors : finding list -> finding list
val rule_name : rule -> string
val to_json : Ir.program -> finding list -> Obs.Json.t
val pp_finding : finding Fmt.t
