(** Real-process SIGKILL crash harness over the {!Filemem} backend.

    Forks a child that runs a seeded multi-threaded ResPCT workload
    (hashmap + partitioned InCLL counters, restart point after every op)
    against a file-backed image, SIGKILLs it at a randomised wall-clock
    point, reopens the surviving file in the parent and runs
    {!Respct.Recovery.run_verified_backend} plus two durability oracles
    against the child's progress log:

    - {b no lost sealed epoch}: the durable epoch word must be at least
      the largest epoch the child logged as sealed;
    - {b last-checkpoint snapshot}: when recovery promises a bit-exact
      image, the recovered digest must equal the digest the child took at
      the failed epoch's quiescent instant.

    {!Prockill_campaign} runs campaigns of such trials, including the hunt
    for a planted [Elide_psync] mutant and its shrunk, replayable
    [# prockill ...] counterexample. *)

val ncounters : int
(** InCLL counter cells in the workload; a trial runs at most this many
    worker threads. *)

type params = {
  seed : int;
  trial : int;
  threads : int;  (** worker threads (slots [0..threads-1]) *)
  keyspace : int;  (** hashmap keys drawn from [0, keyspace) *)
  kill_delay_us : int;  (** wall-clock delay after readiness before SIGKILL *)
  mutant : bool;  (** arm [Filemem.Elide_psync] once steady state is reached *)
}

val digest_with :
  read:(int -> int) ->
  line_words:int ->
  fuel:int ->
  heads:int ->
  buckets:int ->
  cbase:int ->
  ncounters:int ->
  int
(** Durable-image digest shared by every backend-level crash oracle: the
    hashmap's logical bindings (walked via
    {!Pds.Hashmap_respct.bindings_of} from the [heads] array) followed by
    [ncounters] raw counter cells at [cbase], folded into one integer.
    Pass [ncounters:0] when the workload has no counter region. Used by
    the prockill child/parent pair, the Filemem crash matrix and the
    service-layer crash trials, so a recovered image can be compared to a
    digest taken at a quiescent instant on the other side of a crash. *)

val layout_of : Filemem.t -> Respct.Layout.t
(** Reconstruct the ResPCT layout from a (possibly reopened) file-backed
    image's self-describing header — the layout recovery needs. *)

type violation =
  | Child_error of string
  | Reopen_failed of string
  | Unrecoverable_image of string
  | Lost_sealed_epoch of { durable : int; sealed : int }
  | Snapshot_mismatch of { epoch : int; expected : int; got : int }
  | Oracle_walk_failed of { epoch : int; msg : string }

val pp_violation : violation Fmt.t

type outcome = {
  o_params : params;
  o_killed : bool;  (** the child died by our SIGKILL (not a clean exit) *)
  o_finished : bool;  (** the child logged completion before dying *)
  o_recovery_killed : bool;
      (** a recovery pass was itself SIGKILLed before the final verified
          recovery (idempotence sub-trial) *)
  o_verdict : string;  (** clean / repaired / salvaged / unrecoverable / none *)
  o_failed_epoch : int;
  o_sealed_max : int;  (** largest sealed epoch in the child's log, -1 if none *)
  o_truncated : bool;
  o_violations : violation list;  (** empty = the trial passed all oracles *)
}

val run_trial :
  ?recovery_kill:bool ->
  ?recovery_kill_delay_us:int ->
  params ->
  dir:string ->
  outcome
(** One fork / kill / reopen / verify cycle. [recovery_kill] additionally
    SIGKILLs a recovery process mid-flight before the parent's own
    verified recovery, proving recovery idempotent. Trial files live
    under [dir] and are removed afterwards. *)

val with_scratch_dir : string -> (string -> 'a) -> 'a
(** [with_scratch_dir prefix f] runs [f] on a fresh [prefix-<pid>-<random>]
    directory under [/dev/shm] when writable (else the system temp dir)
    and removes it afterwards, also when [f] raises. *)

val fork_available : unit -> bool

val json_of_outcome : outcome -> Obs.Json.t
