(** Real-process SIGKILL crash harness over the {!Filemem} backend, and
    the file-image crash world and durability verdict it shares with the
    file crash grid ([Crashtest.Filematrix]) and the service crash drill.

    Forks a child that runs the {!world} (hashmap + partitioned InCLL
    counters, restart point after every op) against a file-backed image,
    SIGKILLs it at a randomised wall-clock point, reopens the surviving
    file in the parent and holds {!Respct.Recovery.run_verified_backend}
    to {!violations} against the child's progress log:

    - {b no lost sealed epoch}: the durable epoch word must be at least
      the largest epoch the child logged as sealed;
    - {b last-checkpoint snapshot}: when recovery promises a bit-exact
      image, the recovered digest must equal the digest the child took at
      the failed epoch's quiescent instant.

    {!Prockill_campaign} runs campaigns of such trials, including the hunt
    for a planted [Elide_psync] mutant and its shrunk, replayable
    [# prockill ...] counterexample. *)

val ncounters : int
(** InCLL counter cells in the workload; a world runs at most this many
    worker threads. *)

type params = {
  seed : int;
  trial : int;
  threads : int;  (** worker threads (slots [0..threads-1]) *)
  keyspace : int;  (** hashmap keys drawn from [0, keyspace) *)
  kill_delay_us : int;  (** wall-clock delay after readiness before SIGKILL *)
  mutant : bool;  (** arm [Filemem.Elide_psync] once steady state is reached *)
}

type geometry = {
  heads : int;  (** the map's bucket array *)
  cbase : int;  (** the counter array's base *)
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
    Pass [ncounters:0] when the workload has no counter region. The
    service's shards digest their maps with it. *)

val digest : read:(int -> int) -> geometry -> int
(** {!digest_with} over the world's geometry. *)

type world = { fm : Filemem.t; sched : Simsched.Scheduler.t }

val world :
  path:string ->
  mem_seed:int ->
  sched_seed:int ->
  worker_seed:int ->
  threads:int ->
  keyspace:int ->
  ops:int ->
  mutant:bool ->
  on_flushed:(geometry -> int -> int -> unit) ->
  on_sealed:(int -> unit) ->
  world
(** The file-image crash world: a fresh integrity-mode image at [path]
    ([mem_seed] drives its evictions), a scheduler seeded [sched_seed],
    and [threads] workers (at most {!ncounters}) that each run [ops]
    operations — removes, inserts over [0, keyspace) and increments of
    the worker's own counters, drawn from [worker_seed + 104729 * slot]
    — with a restart point after each. The coordinator takes one
    checkpoint, arms [Elide_psync] when [mutant], then checkpoints once a
    period while workers remain. [on_flushed g e d] reports each flushed
    epoch [e] with the digest [d] of the durable image at that quiescent
    instant, before the seal; [on_sealed e] reports each epoch after its
    seal, the first once the mutant is armed. Nothing runs until the
    caller runs [sched].
    @raise Invalid_argument when [threads] is outside [\[1, ncounters\]]. *)

val layout_of : Filemem.t -> Respct.Layout.t
(** Reconstruct the ResPCT layout from a (possibly reopened) file-backed
    image's self-describing header — the layout recovery needs. *)

type violation =
  | Child_error of string
  | Reopen_failed of string
  | Unrecoverable_image of string
  | Lost_sealed_epoch of { durable : int; sealed : int }
  | Snapshot_mismatch of { epoch : int; expected : int; got : int }
  | Walk_failed of string

val pp_violation : violation Fmt.t

val violations :
  Respct.Recovery.verified ->
  sealed:int ->
  recorded:int option ->
  digest:(unit -> int) ->
  violation list
(** The durability verdict on a verified recovery, given the largest
    epoch known sealed before the crash and the digest recorded at the
    failed epoch's quiescent instant, if any. An unrecoverable image is
    the only violation; otherwise a failed epoch below [sealed] is a
    lost sealed epoch, and an exact image with a recorded digest must
    match [digest ()], the walk of the recovered image. Any exception
    from that walk (a cyclic chain, a wild pointer) is a [Walk_failed];
    [digest] is not called when no comparison binds. *)

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
    directory under [/dev/shm] when writable (else the system temp dir),
    then empties and removes it, also when [f] raises. *)

val fork_available : unit -> bool

val json_of_outcome : outcome -> Obs.Json.t
