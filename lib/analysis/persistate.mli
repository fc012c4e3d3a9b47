(** Persist-state abstract interpretation over the {!Ir} CFGs.

    Tracks every persistent variable through the flush lifecycle
    [Dirty -> FlushPending (pwb issued) -> Durable (psync'd)] with a
    collecting-powerset lattice: the fact at a program point is, per
    variable, the *set* of lifecycle states reachable on some path,
    encoded as a 3-bit mask joined by pointwise union. Both may-queries
    (dirty on some path — what {!Flushlint} flags at restart points)
    and must-queries (Durable on every path — the claims
    {!Litmus.Axcheck} verifies against the axiomatic PCSO spec) are
    exact reads of the mask.

    [pwb v] is line-granular (it advances every variable sharing [v]'s
    cache line, like [clwb]); [psync] is a global fence retiring every
    issued pwb. The whole-program {!summarize} composes per-thread
    facts into crash-time claims, demoting multi-writer variables to
    the full-unknown mask — see the module implementation and DESIGN.md
    §16 for the soundness argument. *)

module Vars = Dataflow.Vars

type mask = int
(** Bit-set over the three lifecycle states. *)

val has_dirty : mask -> bool
val has_pending : mask -> bool

type t
(** Analysis context: a program plus its persistent-variable universe
    and cache-line layout. *)

val create : ?lines:(Ir.var -> int) -> Ir.program -> t
(** [lines] maps each persistent variable to its cache-line id; the
    default gives every variable its own line (the
    {!Exec.sim_world} binding). Litmus-compiled programs pass
    [Litmus.Prog.line_of]. *)

val pvars : t -> Ir.var list
val line_of : t -> Ir.var -> int
(** [-1] for unknown (transient) variables. *)

type fact = int array
(** One mask per persistent variable (declaration order); the
    zero-length array is bottom (unreachable). *)

val mask : fact -> int -> mask
(** [mask f i] is variable [i]'s mask, [0] on bottom. *)

type thread_facts = {
  tf_thread : string;
  tf_cfg : Ir.cfg;
  tf_sol : fact Dataflow.solution;
}

val analyse : t -> thread_facts list
(** Per-thread fixpoints over the untruncated CFGs — what
    {!Flushlint} consumes. *)

val var_index : t -> Ir.var -> int option

(** {2 Whole-program crash summary} *)

type summary = {
  s_masks : (Ir.var * mask) list;
  s_must_durable : Vars.t;
  s_may_dirty : Vars.t;
  s_may_pending : Vars.t;
  s_multi_writer : Vars.t;
}

val summarize : ?crash_var:Ir.var -> t -> summary
(** Crash-time claims. [crash_var] marks assignments that halt the
    whole program (the litmus [Crash] compilation,
    {!Litmus.World.halt_var}): facts are taken at those nodes for the
    crashing thread — with the CFG truncated there, since nothing after
    a crash executes — at normal exit where still reachable, and at
    *every* point of a thread that can be halted from outside. Without
    [crash_var] the summary describes normal termination. *)

val summary_to_json : summary -> Obs.Json.t
val pp_summary : summary Fmt.t
