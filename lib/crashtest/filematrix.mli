(** Crash-matrix dimension over {!Filemem} images: prockill's file-image
    world and durability verdict (no-lost-sealed-epoch, exact
    checkpoint-snapshot digest) made deterministic by crashing at a
    *virtual* instant instead of a wall-clock SIGKILL. Counterexamples
    shrink exactly and replay byte-for-byte, and the planted
    [Elide_psync] mutant must be caught — proving the journalled
    write-back load-bearing. *)

type params = {
  fseed : int;
  fthreads : int;
  fkeyspace : int;
  fops : int;  (** operations per worker *)
  fcrash_us : int;  (** virtual power-cut instant (µs) *)
  fmutant : bool;  (** arm [Filemem.Elide_psync] after the first checkpoint *)
}

type outcome = {
  fo_params : params;
  fo_verdict : string;
  fo_failed_epoch : int;
  fo_sealed_max : int;
  fo_checkpoints : int;
  fo_violations : Prockill.violation list;  (** empty = passed both oracles *)
}

val run_trial : params -> dir:string -> outcome
(** {!Prockill.world} with its three seeds all [fseed], a virtual power
    cut at [fcrash_us], then verified recovery held to
    {!Prockill.violations}. Deterministic: equal params give equal
    outcomes. The image lives under [dir] and is removed afterwards,
    also when the trial raises.
    @raise Invalid_argument when [fthreads] is outside
    [\[1, Prockill.ncounters\]]. *)

val campaign : ?dir:string -> unit -> params Obs.Cx.campaign
(** Tag [filematrix], keys [seed threads keyspace ops crash_us
    mutant=0|1]: one deterministic trial per run. Candidates: half the
    ops, one thread fewer, a crash 40 µs earlier. Trial files go to
    [dir], or to a scratch directory made and removed around each run. *)

val check : ?dir:string -> Matrix.preset -> Format.formatter -> bool
(** Both directions over a grid derived from the preset: clean worlds
    must pass every (seed × crash instant) point, and the planted
    psync-elision mutant must be caught, shrunk and replayed. Returns
    whether everything held. [dir] defaults to a scratch directory
    removed on return. *)
