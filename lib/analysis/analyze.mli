(** The [analyze] campaign over the IR corpus ({!Corpus.all} and
    {!Corpus.flush_corpus}) as a job list ({!Obs.Jobs}): one job per
    program. A job infers the program's restart points and logging plan
    ({!Placement.infer}), lints it against the plan ({!Lint.run}), and
    fails on an error finding; with [persistency] it adds the
    {!Persistate} crash summary, with [dynamic] the {!Audit}
    cross-check against a simulator run, which fails when it disagrees.
    Its JSON is the program's entry of the [respct-analyze/v2]
    document. *)

val jobs :
  ?program:string ->
  ?mutant:Flushlint.mutant ->
  ?strip:Ir.var ->
  ?iters:int ->
  ?dynamic:bool ->
  ?persistency:bool ->
  unit ->
  (Obs.Jobs.campaign, string) result
(** [program] selects one program by name; [iters] (default 8) is the
    corpus loop count. [strip] drops a variable from every inferred
    logging set before linting (the strip-log mutant). [mutant] is
    planted into every program first; each job counts the findings of
    the rule that should catch it, and the closing step prints whether
    any did — a caught mutant fails the run, as the CI steps expect.
    The closing step returns the document with its [schema] and
    [programs] fields. [Error] names the known programs when [program]
    matches none. *)
