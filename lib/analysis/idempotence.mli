(** Idempotence analysis of straight-line access sequences (paper Table 2
    and section 3.3.2, after De Kruijf et al., PLDI'12).

    A program sub-part re-executed from a restart point computes the same
    result iff no variable's access sequence begins with a
    write-after-read; the paper derives from this the rule deciding which
    persistent variables need InCLL logging. This module implements that
    rule over explicit traces — the automation direction the paper's
    section 6 sketches as future work (see also {!Simnvm.Event.record}
    for traces recorded from running simulated code). *)

type access = Read of string | Write of string

type classification =
  | No_dependency  (** never written in the trace *)
  | Raw  (** first write precedes any read of it: idempotent *)
  | War  (** read before the first write: requires logging *)

val classify : access list -> string -> classification
(** Classify one variable's dependency pattern in the trace. *)

val idempotent : access list -> bool
(** Whether re-executing the whole trace is safe without logging. *)

val needs_logging : access list -> string list
(** The variables the section 3.3.2 rule marks as requiring InCLL. *)

val table2_raw : access list
(** The paper's Table 2 RAW sequence: [x=5; y=x]. *)

val table2_war : access list
(** The paper's Table 2 WAR sequence: [y=x; x=8]. *)

val pp_classification : classification Fmt.t
