(** The ResPCT checkpointing runtime (paper Figure 4): epochs, restart
    points, modification tracking and the periodic checkpoint procedure with
    a flusher-thread pool.

    Typical life cycle:
    {ol
    {- [create env] initialises a fresh persistent image (or
       [restart env] after {!Recovery});}
    {- [start t] launches the periodic checkpoint coordinator;}
    {- application threads are launched with [spawn], allocate persistent
       state with [alloc_incll]/[alloc_raw], update it with [update] (the
       paper's [update_InCLL]) or plain stores + [add_modified], and call
       [rp] at their restart points;}
    {- [stop t] ends the coordinator once the workers are done.}} *)

type mode =
  | Full  (** complete algorithm *)
  | No_flush
      (** checkpoints run but skip the flush (Figure 10, ResPCT-noFlush) *)
  | Incll_only
      (** no coordinator at all: InCLL + tracking costs only (Figure 10,
          ResPCT-InCLL) *)

type config = {
  period_ns : float;  (** checkpoint interval (paper default: 64 ms) *)
  flusher_pool : int;  (** parallel flusher threads at checkpoint time *)
  mode : mode;
  max_threads : int;  (** thread-slot capacity *)
  registry_per_slot : int;  (** registry capacity per thread slot *)
  integrity : bool;
      (** seal InCLL epoch words, registry entries and checkpoint commits
          with {!Checksum} codes so {!Recovery.run_verified} can detect and
          classify media damage. Off by default; when off, behaviour and
          the persistent image are bit-identical to a build without the
          feature. *)
  pipeline : bool;
      (** asynchronous epoch advance ([Full] mode only): quiescence only
          gathers the modified set and hands it to a pool of long-lived
          background flusher fibers, then releases the workers into epoch
          e+1 immediately; the checkpoint seals on a double-buffered commit
          record once the background walk completes. A worker re-logging a
          cell whose last log belongs to the still-flushing epoch waits for
          the seal (wait-for-flushed; see DESIGN.md §12). Off by default;
          when off, behaviour, virtual timings and the persistent image are
          bit-identical to the classic synchronous checkpoint. *)
}

val default_config : config

(** Planted protocol mutants for crash testing: each disables one safety
    leg of the pipelined checkpoint so the crash matrix can prove that leg
    load-bearing. Never set outside tests. *)
type mutant =
  | Seal_before_walk
      (** seal the commit at handoff, before the walk completes *)
  | No_overlap_wait  (** drop the wait-for-flushed overlap barrier *)
  | Early_reclaim
      (** release the epoch's heap frees at handoff instead of at seal *)

type stats = {
  mutable checkpoints : int;
  mutable flushed_addrs : int;  (** addresses flushed across all checkpoints *)
  mutable flush_ns : float;
      (** virtual time spent flushing: the synchronous flush makespan in
          classic mode, the background-walk makespan (handoff to walk end,
          on the flusher clocks) in pipeline mode *)
  mutable period_sum : float;
  mutable last_checkpoint_end : float;
  mutable stall_ns : float;
      (** mutator stall: timer raise to worker release, summed over
          checkpoints — the whole checkpoint in classic mode, only the
          quiescence wait + handoff in pipeline mode *)
  mutable overlap_ns : float;
      (** pipeline only: worker release to commit seal, the flush window
          overlapped with mutator execution *)
}

type t

val create : ?cfg:config -> Simsched.Env.t -> t
(** Initialise a runtime over a fresh persistent image; epoch 0 and the
    metadata cells are persisted immediately, so a crash before the first
    checkpoint recovers the empty initial state. *)

val restart : ?cfg:config -> ?reflush:Incll.cell list -> Simsched.Env.t -> t
(** Attach a runtime to a recovered image. [reflush] must be the
    [rolled_back] list of the {!Recovery.report}: those cells carry the
    failed epoch in their epoch_id, so their next update skips logging and
    they would otherwise never be re-flushed. *)

val start : ?on_flushed:(int -> unit) -> t -> unit
(** Spawn the periodic checkpoint coordinator (no-op in [Incll_only] mode)
    and, for a pipelined runtime, its flusher pool. The first checkpoint
    falls one [period_ns] after the instant of the call (0 before
    [Scheduler.run]); each later one a period after the previous
    deadline, or at once when a checkpoint overran its period. Each is
    {!run_checkpoint} [?on_flushed]: the hook runs at every checkpoint's
    quiescent instant with the epoch that checkpoint opens (1, 2, ... on
    a fresh image, in order), where the state is exactly what recovery
    restores for a crash in that epoch. It runs on the coordinator while
    every application thread waits at a restart point or is outside the
    runtime, so it must not block. The loop runs until {!stop}. *)

val stop : t -> unit
(** Ask the coordinator to exit at its next period boundary; also wakes any
    idle background flusher fibers so a pipelined run can terminate. A
    world whose coordinator runs ends only after [stop], classic or
    pipelined: call it from inside the simulation once the workers are
    done (typically from the last one), or the world never completes.
    In pipeline mode, a checkpoint the coordinator has begun but not yet
    handed off when [stop] runs is handed off after the idle flushers
    exited, and never seals. *)

val set_mutant : t -> mutant option -> unit
(** Plant (or clear) a pipelined-protocol mutant. Test-only. *)

val spawn : ?name:string -> t -> slot:int -> (Pctx.t -> unit) -> int
(** Launch an application thread bound to a slot: registers the slot
    (allocating or recovering its persistent RP_id cell), runs the body with
    the slot's persistence context, deregisters on normal exit. *)

val register : t -> slot:int -> unit
(** Low-level: bind the calling simulated thread to a slot. *)

val deregister : t -> slot:int -> unit
(** Low-level: release a slot (checkpoints stop waiting for it). *)

val ctx : t -> slot:int -> Pctx.t
(** Persistence context of a slot (epoch lookup + tracking hook). *)

val rp : t -> slot:int -> int -> unit
(** Restart point (paper [RP(id)]): persist the RP id in the thread's RP_id
    cell; if a checkpoint is pending, raise the thread's flag and block
    until the checkpoint completes. [id] must be unique per call site and
    stable across runs. Never call inside a critical section. *)

val checkpoint_allow : t -> slot:int -> unit
(** Permit checkpoints to proceed without this thread (before a blocking
    call, paper Figure 7). *)

val checkpoint_prevent_nolock : t -> slot:int -> unit
(** Variant for blocking calls made outside critical sections. *)

val cond_wait : t -> slot:int -> Simsched.Condvar.t -> Simsched.Mutex.t -> unit
(** Condition-variable wait wrapped in allow/prevent (paper Figure 7). *)

val run_checkpoint : ?on_flushed:(int -> unit) -> t -> unit
(** Execute one full checkpoint (the coordinator's body): raise the timer,
    wait for all active threads to reach restart points, then flush and
    advance the epoch — synchronously in classic mode, or by handing the
    walk to the background flusher pool in pipeline mode (the call returns
    at handoff; the seal lands later on a flusher fiber, and a second call
    first waits out any flush still in flight). [on_flushed next_epoch]
    runs at the quiescent instant: the model state there is exactly what
    recovery restores for a crash in [next_epoch]. In pipeline mode the
    contract still holds: a crash during the overlapped walk reports the
    previous epoch as failed (the epoch word has not advanced) and recovery
    restores the previous snapshot; a crash after the seal reports
    [next_epoch] and restores this one. Test oracles snapshot it there.
    {!start}'s coordinator is the periodic caller; only loops that need
    something between checkpoints drive it by hand: the service's rolling
    coordinator (staggered first deadline, sealed-epoch bookkeeping after
    each return), the file world of {!Prockill} (one checkpoint before its
    mutant arms) and tests that take a fixed number of checkpoints. *)

val alloc_incll : t -> slot:int -> int -> Incll.cell
(** Allocate, initialise and register one InCLL-protected variable. *)

val alloc_incll_array : t -> slot:int -> int -> init:int -> int
(** Allocate a packed array of [n] registered InCLL cells, all initialised
    to [init]; address cells with {!Heap.cell_at}. *)

val alloc_raw : ?line_start:bool -> t -> slot:int -> words:int -> int
(** Allocate unlogged persistent words (for WAR-free data: persist them with
    plain stores + {!add_modified}). *)

val alloc_raw_block :
  ?align_line:bool ->
  ?line_start:bool ->
  t ->
  slot:int ->
  words:int ->
  int * bool
(** As {!alloc_raw}, also reporting whether the block is fresh (see
    {!Heap.alloc_block}); needed when the block embeds InCLL cells. *)

val init_incll : t -> slot:int -> fresh:bool -> Incll.cell -> int -> unit
(** Initialise an InCLL cell embedded in a block from {!alloc_raw_block};
    registers it for recovery only when the block is fresh. *)

val free : t -> slot:int -> int -> words:int -> unit
(** Release a heap block (reusable after the next checkpoint). *)

val update : t -> slot:int -> Incll.cell -> int -> unit
(** The paper's [update_InCLL]. Caller must hold the variable's lock. *)

val read : t -> slot:int -> Incll.cell -> int
(** Current value of an InCLL variable. *)

val add_modified : t -> slot:int -> Simnvm.Addr.t -> unit
(** The paper's [add_modified]: register a plain persistent address for
    flushing at the next checkpoint. *)

val epoch : t -> int
(** Current global epoch: the persistent epoch word in classic mode, the
    volatile epoch counter in pipeline mode (which runs one ahead of the
    word while a background flush is in flight). *)

val set_spans : t -> Obs.Span.t -> unit
(** Attach a span recorder: checkpoints thereafter report
    ["checkpoint"] (timer raise to completion — worker release in classic
    mode, seal in pipeline mode), ["checkpoint.wait"] (quiescence wait),
    ["checkpoint.stall"] (timer raise to worker release, the mutator-visible
    pause), ["checkpoint.flush"] (flush makespan; per-flusher busy spans in
    pipeline mode), ["checkpoint.overlap"] (pipeline only: worker release
    to seal) and ["epoch"] (previous checkpoint end to this one) intervals
    on the virtual clock. Pure observation: attaching one changes no
    charge. *)

val stats : t -> stats
val heap : t -> Heap.t
val layout : t -> Layout.t
val env : t -> Simsched.Env.t

val mean_effective_period : t -> float
(** Mean measured distance between checkpoint completions (section 5.2's
    effective period; [nan] with fewer than two checkpoints). *)
