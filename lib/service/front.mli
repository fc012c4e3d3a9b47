(** Request-level KV serving front-end over N independently-checkpointed
    ResPCT shards (DESIGN.md §15).

    Simulated client sessions (closed-loop, exponential arrivals and
    think times) feed one front-end fiber that routes each request
    through a consistent-hash ring ({!Router}) into a bounded per-shard
    admission queue ({!Admission}). Shard workers drain batches, coalesce
    duplicate puts, execute against the shard's own {!Respct.Runtime}
    world and hand completions back. Checkpoints roll: each shard's
    coordinator staggers its deadlines by [period/shards], so no instant
    pauses every shard at once (the result reports the measured stall
    overlap, swept over every stall span the shards record).

    Six settings are constants rather than config fields, since no
    caller varies them: 64 ring points per shard, a one-way network hop
    of 3 µs, 2 retries per request after a 10 µs mean backoff, pipelined
    checkpoints and integrity-mode images. A crash trial still forces
    classic checkpoints. The JSON document prints all six.

    Crash-under-load (File backend): at [crash_at_ns] the victim shard's
    durability path freezes (the SIGKILL instant), its queue closes —
    clients see typed [Shard_down] rejections — and once its workers
    drain, the image takes a power cut and runs
    {!Respct.Recovery.run_verified_backend} inside the simulation while
    the survivors keep serving. Replies are acked at execution, so the
    victim legitimately rolls back to its last sealed checkpoint; the
    report holds recovery to an exact (clean or repaired) image and to
    prockill's durability verdict ({!Prockill.violations}: no lost
    sealed epoch, exact checkpoint digest), as does the end-of-run audit
    of every surviving image. *)

type backend_kind =
  | Sim  (** the in-memory simulator ({!Simnvm.Memsys}) per shard *)
  | File of string  (** {!Filemem} images under the given directory *)

type config = {
  shards : int;
  workers : int;  (** worker threads per shard *)
  sessions : int;
  requests : int;  (** requests per session (closed loop) *)
  keys : int;
  prefill : int;  (** keys [0, prefill) inserted before traffic starts *)
  theta : float;  (** zipfian skew of key popularity *)
  read_pct : int;
  arrival_ns : float;  (** mean inter-session-arrival gap *)
  think_ns : float;  (** mean client think time between requests *)
  queue_cap : int;
  batch_max : int;
  period_ns : float;  (** per-shard checkpoint period *)
  disjoint_keys : bool;  (** partition the keyspace by session *)
  collect_final : bool;  (** return the merged final (key, value) map *)
  seed : int;
  backend : backend_kind;
  nvm_words : int;  (** per shard; 0 = size from prefill + traffic *)
  registry_per_slot : int;
}

val smoke : config
(** Seconds-scale: 4 shards, 200 sessions, 20k keys. *)

val sweep : config
(** 8 shards, 10k sessions, 2^20 keys, zipfian hot-key storm. *)

val validate :
  ?crash_at_ns:float -> ?crash_shard:int -> config -> (unit, string) result
(** [Error field] names the first field {!run} would refuse: non-positive
    [shards], [workers], [sessions], [requests], [keys] or [batch_max],
    [read_pct] outside [[0, 100]], a negative [crash_shard], or a crash
    trial without the File backend. *)

type shard_report = {
  sr_id : int;
  sr_served : int;  (** requests executed (including coalesced puts) *)
  sr_batches : int;
  sr_coalesced : int;
  sr_accepted : int;
  sr_rejected_full : int;
  sr_rejected_down : int;
  sr_max_depth : int;
  sr_checkpoints : int;
  sr_sealed : int;
  sr_stall_ns : float;
  sr_flush_ns : float;
  sr_down : bool;
}

type crash_report = {
  cr_shard : int;
  cr_at_ns : float;
  cr_verdict : string;
  cr_exact : bool;
  cr_failed_epoch : int;
  cr_sealed_at_crash : int;
  cr_digest_match : bool option;
      (** [None]: the verdict compared no digest (an inexact image, or no
          digest recorded for the failed epoch) *)
  cr_violations : Prockill.violation list;
      (** {!Prockill.violations} on the recovered image; empty = held *)
  cr_dropped : int;  (** requests failed back to clients by the crash *)
  cr_recovery_ns : float;
      (** virtual duration of the verified recovery: charged in-sim time
          plus the modeled full-image media scan (the walk itself reads
          the free post-crash persisted view) *)
  cr_survivor_mrps : float;  (** survivors' Mreq/s while the victim is down *)
}

type survivor_check = {
  sc_shard : int;
  sc_verdict : string;
  sc_failed_epoch : int;
  sc_sealed : int;
  sc_ok : bool;
      (** an exact image on which {!Prockill.violations} found nothing *)
}

type result = {
  r_cfg : config;
  r_makespan_ns : float;
  r_completed : int;
  r_failed : int;
  r_retried : int;
  r_rejected_full : int;
  r_rejected_down : int;
  r_mrps : float;  (** completed requests per virtual µs (Mreq/s) *)
  r_shards : shard_report list;
  r_stall_overlap_ns : float;
      (** virtual time during which >= 2 shards were stalled at once *)
  r_crash : crash_report option;
  r_survivors : survivor_check list;
      (** end-of-run durability audit of every surviving file image *)
  r_final : (int * int) list option;
  r_metrics : Obs.Metrics.t;
  r_span_json : (int * Obs.Json.t) list;
}

val run : ?crash_at_ns:float -> ?crash_shard:int -> config -> result
(** Execute one service run. [crash_at_ns] arms the crash-under-load
    scenario against shard [crash_shard mod shards] (default 0).
    @raise Invalid_argument ["Front.run: " ^ field] before any shard or
    image exists, when {!validate} refuses [field]. *)

val to_json : result -> Obs.Json.t
(** Schema ["respct-service/v1"]. Everything exported is virtual-time or
    counter data: the same seed yields byte-identical text. *)
