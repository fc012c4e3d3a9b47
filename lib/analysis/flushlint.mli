(** Flush-discipline lint over {!Persistate} facts.

    Emits typed findings for the explicit-flush discipline: restart
    points reachable with an unflushed persistent store, dependent
    publishes racing an unfenced pwb, pwbs that are redundant on every
    path, psyncs with nothing to retire, records left dirty across
    cache-line boundaries at exit, and — composing with a must-held
    lockset analysis — cross-thread persist-order races the per-thread
    lattice cannot see.

    Programs that never issue a [Pwb]/[Psync] are out of scope (the
    runtime-checkpointed corpus relies on epoch-seal flushing instead)
    and produce no findings. *)

type kind =
  | Missing_pwb_at_rp
  | Missing_psync_publish
  | Redundant_pwb
  | Psync_no_pending
  | Torn_cross_line
  | Persist_order_race

val kind_name : kind -> string
(** The stable rule identifier, e.g. ["missing-pwb-before-restart-point"]. *)

val is_error : kind -> bool
(** [Missing_pwb_at_rp] and [Missing_psync_publish] gate CI; the rest
    are warnings. *)

type finding = {
  fl_kind : kind;
  fl_thread : string option;
  fl_var : Ir.var option;
  fl_vars : Ir.var list;  (** other involved variables *)
  fl_rp : int option;
  fl_site : string option;  (** CFG breadcrumb of the offending node *)
  fl_message : string;
}

val run : ?lines:(Ir.var -> int) -> Ir.program -> finding list
(** [lines] is the cache-line layout, as for {!Persistate.create}. *)

(** {2 Planted mutants}

    Program transformers used by the soundness gate: each must turn a
    clean program into one the lint flags (and the dynamic oracles
    confirm). *)

val strip_psync : Ir.program -> Ir.program
(** Delete every [Psync]; pwbs are issued but never fenced. *)

val inject_redundant_pwb : Ir.program -> Ir.program
(** Duplicate every [Pwb] immediately after itself; the second can
    never see a dirty line. *)

type mutant = Strip_psync | Inject_redundant_pwb
(** The two planted mutants, over IR here and over litmus programs in
    [Litmus.Axcheck]. *)

val mutants : mutant list

val mutant_name : mutant -> string
(** [strip-psync] or [redundant-pwb], as the CLI and counterexample
    lines spell them. *)

val plant : mutant -> Ir.program -> Ir.program
(** {!strip_psync} or {!inject_redundant_pwb}. *)
