(** Axiomatic soundness gate for the static durability analyzer.

    {!Analysis.Persistate} claims a must-durable set for a compiled
    litmus program; this module enumerates every axiomatically-allowed
    terminal [(coherent memory, persistent image)] pair (via
    {!Axiom.enumerate}) and requires [pmem(v) = mem(v)] for each
    claimed [v] in each pair — by default against [Pcso_lazy], the
    weakest variant, which dominates the rest. Violations shrink over
    the {e original} program (each candidate re-derives its own claims)
    into replayable [# axcheck] counterexample files. *)

(** {2 Planted mutants} *)

type mutant = Analysis.Flushlint.mutant = Strip_psync | Inject_redundant_pwb
(** The flush-discipline mutants of {!Analysis.Flushlint}, here over
    litmus programs. *)

val strip_psync : Prog.t -> Prog.t
(** Delete every [Psync]: issued pwbs never fence, so the claims of the
    original program must fail axiomatically. *)

val inject_redundant_pwb : Prog.t -> Prog.t
(** Duplicate every [Pwb]: outcome-neutral axiomatically, caught by the
    static {!Analysis.Flushlint.Redundant_pwb} rule and the dynamic
    clean-pwb counter instead. *)

(** {2 IR bridge} *)

val compile_ir :
  ?lines:(Analysis.Ir.var -> int) ->
  ?layout:(Prog.loc * int * int) list ->
  Analysis.Ir.program ->
  (Prog.t, string) result
(** Inverse of {!World.compile} for straight-line IR in the litmus
    fragment (constant stores, loads into transients, [Faa]-shaped
    RMWs, [Pwb]/[Psync], assignments to {!World.halt_var} as [Crash]).
    [layout] wins over [lines]; the default puts each persistent
    variable on its own line. Control flow or non-litmus statement
    shapes return [Error]. *)

(** {2 Static claims and the containment check} *)

type claims = {
  c_must_durable : Prog.loc list;  (** layout order *)
  c_may_dirty : Prog.loc list;
  c_summary : Analysis.Persistate.summary;
}

val static_claims : Prog.t -> claims
(** {!Analysis.Persistate.summarize} over {!World.compile}, with the
    program's own cache-line layout and [Crash] compiled to the halt
    variable. *)

type violation = { v_loc : Prog.loc; v_mem : int list; v_pmem : int list }

type report = {
  r_prog : Prog.t;
  r_variant : Axiom.variant;
  r_skipped : bool;  (** state cap hit: nothing was decided *)
  r_states : int;
  r_terminals : int;  (** distinct terminal (mem, pmem) pairs *)
  r_claimed : Prog.loc list;
  r_empirical : Prog.loc list;
      (** locations durable in every terminal pair (empty when
          skipped) — the precision ceiling *)
  r_violations : violation list;
}

val check :
  ?max_states:int ->
  ?variant:Axiom.variant ->
  ?claims:claims ->
  Prog.t ->
  report
(** Soundness: [r_violations = []] iff every claimed location is
    durable in every allowed terminal state. Pass [claims] explicitly
    to judge one program's claims against another's enumeration (the
    mutant gate: claims of the original vs the stripped variant).
    Default variant [Pcso_lazy]. *)

val precision : report -> float
(** |claimed| / |empirically always-durable|; 1.0 when the empirical
    set is empty. *)

val ref_dirty_lines : ?sched_seed:int -> ?evict_rate:float -> Prog.t -> int list
(** Litmus lines still cache-dirty in the eager reference model after
    one seeded schedule ({!World.drive} over {!World.mem_config}) —
    every returned line must have a member in the static may-dirty
    set. *)

(** {2 Counterexamples} *)

type cx = {
  cx_prog : Prog.t;  (** the ORIGINAL (shrunk) program, claims intact *)
  cx_variant : Axiom.variant;
  cx_mutant : mutant option;  (** [None]: the program itself violates *)
  cx_loc : Prog.loc;
}

val violates : ?mutant:mutant -> variant:Axiom.variant -> Prog.t -> bool
(** The shrink predicate: the program's own claims are non-empty and
    violated by its (optionally mutated) enumeration. *)

val campaign : cx Obs.Cx.campaign
(** Tag [axcheck]: the program text followed by an
    [# axcheck variant=.. \[mutant=..\] loc=.. must-durable=..] line
    ({!Prog.of_string} skips it as a comment). Checking re-derives the
    claims and reports the first violated location; must-durable is
    informational. Candidates: {!Gen.shrink} over the original program,
    so each candidate is judged by its own claims. *)

val counterexample :
  ?mutant:mutant -> variant:Axiom.variant -> Prog.t -> cx Obs.Cx.shrunk option
(** The program's first violated claim under [mutant], shrunk, printed
    and replayed; [None] when every claim holds. *)

val demo : Prog.t
(** The WAL-append litmus twin of [Analysis.Corpus.wal_append]: claims
    [{payload, commit}] must-durable; the strip-psync mutant violates
    both. The [analyze --mutant strip-psync] CLI flow shrinks and
    replays it. *)

(** {2 Fuzz} *)

type fuzz_result = {
  fz_tested : int;
  fz_skipped : int;  (** enumeration hit the state cap *)
  fz_claims : int;  (** must-durable claims verified across programs *)
  fz_failure : cx Obs.Cx.shrunk option;  (** shrunk and replayed *)
}

val fuzz :
  ?n:int ->
  ?seed:int ->
  ?variant:Axiom.variant ->
  ?mutate:mutant ->
  unit ->
  fuzz_result
(** [n] (default 300) programs from {!Gen.gen_prog} under a seeded
    stream; each program's claims are checked against its (optionally
    mutated) enumeration, stopping at (and minimizing) the first
    violation. With [mutate = None] any failure is a genuine soundness
    bug. *)

(** {2 The analyze campaign's axiomatic part} *)

val jobs :
  ?mutant:mutant ->
  ?fuzz:int * int ->
  ce_file:string ->
  unit ->
  Obs.Jobs.campaign
(** Under [Strip_psync], one job in which the stripped {!demo} must
    violate a claim, returning its shrunk counterexample; with [fuzz =
    (n, seed)], one job that runs {!fuzz} and fails on a soundness
    violation, returning it shrunk. Their re-run lines name [ce_file].
    The closing step's document holds the fuzz's counts and shrunk text
    under [axcheck], or nothing. *)
