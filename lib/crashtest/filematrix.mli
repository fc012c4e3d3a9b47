(** Crash-matrix dimension over {!Filemem} images: the prockill
    durability oracles (no-lost-sealed-epoch, exact checkpoint-snapshot
    digest) made deterministic by crashing at a *virtual* instant
    instead of a wall-clock SIGKILL. Counterexamples shrink exactly and
    replay byte-for-byte, and the planted [Elide_psync] mutant must be
    caught — proving the journalled write-back load-bearing. *)

type params = {
  fseed : int;
  fthreads : int;
  fkeyspace : int;
  fops : int;  (** operations per worker *)
  fcrash_us : int;  (** virtual power-cut instant (µs) *)
  fmutant : bool;  (** arm [Filemem.Elide_psync] after the first checkpoint *)
}

type violation =
  | Lost_sealed_epoch of { durable : int; sealed : int }
  | Snapshot_mismatch of { epoch : int; expected : int; got : int }
  | Unrecoverable_image of string
  | Walk_failed of string

val pp_violation : violation Fmt.t

type outcome = {
  fo_params : params;
  fo_crashed : bool;
  fo_verdict : string;
  fo_failed_epoch : int;
  fo_sealed_max : int;
  fo_checkpoints : int;
  fo_violations : violation list;  (** empty = passed both oracles *)
}

val run_trial : params -> dir:string -> outcome
(** One seeded workload / virtual power cut / verified recovery cycle.
    Deterministic: equal params give equal outcomes. Trial files live
    under [dir] and are removed afterwards. *)

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
