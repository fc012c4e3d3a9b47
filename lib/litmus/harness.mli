(** Differential litmus harness: sample executions of a program in a
    world and require every observed post-crash outcome to lie in the
    matching axiomatic set, with shrunk, replayable counterexample
    files. *)

type violation = {
  v_world : World.id;
  v_variant : Axiom.variant;
  v_mutant : World.mutant option;  (** mutant planted at detection time *)
  v_sched_seed : int;
  v_image_seed : int;
  v_observed : int list;
}

type report = {
  r_name : string;
  r_world : World.id;
  r_variant : Axiom.variant;
  r_samples : int;
  r_skipped : bool;  (** axiom state cap hit: nothing was checked *)
  r_states : int;
  r_violations : violation list;
}

val check :
  ?mutant:World.mutant ->
  ?samples:int ->
  ?seed:int ->
  world:World.id ->
  variant:Axiom.variant ->
  Prog.t ->
  report
(** Run [samples] (default 64) seeded (schedule, crash-image) pairs —
    the stream derives from [seed], so reported pairs replay — with
    [mutant] planted, and collect every outcome outside the allowed
    set; each violation records the mutant. *)

type witness = Prog.t * violation option
(** A program and the violation found in it; [None] marks a shrink
    candidate still to be searched. *)

val campaign :
  ?mutant:World.mutant ->
  ?samples:int ->
  ?seed:int ->
  ?worlds:World.id list ->
  ?variants:Axiom.variant list ->
  unit ->
  witness Obs.Cx.campaign
(** Tag [check]: the program text ({!Prog.to_string}) followed by a
    [# check world=.. variant=.. \[mutant=..\] sched=.. image=..
    observed=..] line ({!Prog.of_string} skips it as a comment). A
    witness with a violation re-runs its seed pair with its own mutant
    planted; a candidate is searched for its first violation over
    [worlds] (default all) and [variants] (default PCSO) with [samples]
    and [seed], under [mutant].
    Candidates: the well-formed {!Gen.shrink} steps. *)

type fuzz_result = {
  f_tested : int;
  f_skipped : int;  (** programs whose axiom enumeration hit the cap *)
  f_failure : witness Obs.Cx.shrunk option;  (** shrunk and replayed *)
}

val fuzz :
  ?mutant:World.mutant ->
  ?n:int ->
  ?seed:int ->
  ?samples:int ->
  ?worlds:World.id list ->
  ?variants:Axiom.variant list ->
  unit ->
  fuzz_result
(** Generate [n] (default 500) programs from {!Gen.gen_prog} under a
    [seed]-derived stream and check each with [mutant] planted; stops at
    (and minimizes) the first violation. *)

(** {2 The litmus campaign} *)

val jobs :
  ?mutant:World.mutant ->
  ?verbose:bool ->
  ?fuzz:int ->
  ?samples:int ->
  ?seed:int ->
  ?worlds:World.id list ->
  ?variant:Axiom.variant ->
  ?ce_file:string ->
  corpus:bool ->
  unit ->
  (Obs.Jobs.campaign, string) result
(** The [litmus] subcommand as a job list. With [corpus], one job per
    {!Corpus.all} entry, in order: its {!Axiom.failed_inclusions}, then
    {!check} under each of its variants in each of [worlds], one line
    per report (with [verbose], every allowed set first). It passes iff
    no inclusion fails and no report has a violation, so with [samples
    = 0] its verdict is the inclusions alone; its JSON rows are its
    reports. With [fuzz], one more job that runs {!fuzz} over [worlds]
    under [variant] (default PCSO) and returns its shrunk
    counterexample, whose re-run line names [ce_file]. [mutant] is
    planted in every run; [samples] (default 24), [seed] (default 1)
    and [worlds] (default both) apply to both. The closing step returns
    the [respct-litmus/v1] document. [Error] when there is nothing to
    do. *)
