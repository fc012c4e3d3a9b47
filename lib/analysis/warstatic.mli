(** Path-insensitive may-WAR analysis: the CFG lift of
    {!Idempotence.classify}.

    Per restart-point-delimited region, a variable whose access
    sequence can begin with a read followed by a write (WAR) makes
    re-execution non-idempotent and needs InCLL logging (paper section
    3.3.2). The forward dataflow tracks, per region, the variables
    may-read-before-write ([r], union lattice) and must-/may-written
    (intersection / union); a write to [v] flags WAR iff [v] is in [r]
    at the write — i.e. some path carries a read of [v] with no earlier
    write on that path since the region start. Restart points reset the
    state; the thread entry starts an implicit region.

    Soundness: on straight-line code there is a single path, the may
    and must sets coincide with the exact access sequence and the
    verdict equals {!Idempotence.classify} on the trace. With branches
    and loops, every WAR observable in some execution is a WAR along
    some CFG path, and the union lattice only ever grows [r] while the
    intersection lattice only ever shrinks [wmust], so the static WAR
    set over-approximates every dynamic one (tested as a QCheck
    property against the {!Exec} interpreter). *)

module Vars = Dataflow.Vars

type site = { s_node : int; s_path : string; s_var : Ir.var }
(** A flagging assignment: CFG node id, source breadcrumb, variable. *)

type summary = {
  thread : string;
  war : Vars.t;  (** may-WAR variables, any region of this thread *)
  written : Vars.t;  (** may-written variables (WAR or RAW) *)
  sites : site list;
}

val analyse : Ir.program -> summary list

val classify : Ir.program -> Ir.var -> Idempotence.classification
(** Program-wide verdict, merging threads with [War > Raw >
    No_dependency]. Exact on straight-line single-thread programs. *)
