(** The crash explorer: exhaustive crash-point enumeration with adversarial
    persistent-image enumeration per crash point (tentpole of the crash
    matrix). *)

type instance = {
  mem : Simnvm.Memsys.t;
  run : unit -> unit;
      (** build the structures and drive the operations; everything that
          emits memory events must happen inside this call, where the
          explorer's crash-point subscriber sees it *)
  completed : unit -> int;  (** operations fully completed so far *)
  recover_check : unit -> (unit, string) result;
      (** run the system's recovery on the current persistent image of
          [mem] and compare against the oracle. Invoked once per distinct
          adversarial image of a segment (see {!explore}), so it must be
          re-runnable and its verdict a function of the image and the
          host state [oracle_key] covers; invoked in the middle of [run],
          from inside the world's publishing access, on [mem] suspended
          ({!Simnvm.Memsys.suspend}). It may write [mem] freely — resuming
          undoes every write — and may run its own scheduler over it, but
          it must not change state that the world's run reads (the
          oracle's models, the structures' host handles), nor run the
          world's simulated code. *)
  recover_check_faulty : (unit -> (unit, string) result) option;
      (** oracle for images that additionally carry injected media faults:
          recovery must either restore the exact last-checkpoint snapshot
          or explicitly report the damage — a silently wrong image is the
          violation. [None] falls back to [recover_check] (scenarios whose
          recovery makes no integrity claims). *)
  oracle_key : (unit -> int) option;
      (** a value that changes whenever the host state the oracles read
          changes (ResPCT: a counter bumped at runtime creation, at
          structure creation and at every checkpoint's [on_flushed]).
          [None] when that state may change between any two boundaries
          (a model advanced mid-operation, a shadow log): verdicts are
          then reused only within one boundary. A key that misses a
          change makes the explorer reuse stale verdicts. *)
}

type scenario = {
  name : string;
  sched_seed : int;
  mem_seed : int;
  pcso : bool;
  n_ops : int;
  make : n_ops:int -> instance;  (** fresh deterministic world *)
}

type variant =
  | Baseline  (** the image as the crash left it: no extra write-back *)
  | Evict_line of int
      (** one dirty line additionally written back whole (legal under PCSO) *)
  | Evict_word of int
      (** one dirty word additionally persisted alone — word-granular
          hardware; only generated under the pcso = false ablation *)
  | Evict_all
      (** every dirty line written back; under eADR, the only image *)

type failure = {
  crash_index : int;
  variant : variant;
  fault_seed : int option;
      (** the media-fault seed layered on the image, if any *)
  reason : string;
}

type outcome = {
  scenario : scenario;
  boundaries : int;  (** persist-relevant event boundaries enumerated *)
  images : int;  (** adversarial images enumerated and judged *)
  recoveries : int;
      (** [recover_check] runs actually made: [images] less the images
          whose verdict the memo supplied *)
  truncated : int;  (** images dropped by [max_images_per_point] *)
  failures : failure list;
}

val explore :
  ?max_images_per_point:int ->
  ?stop_at_first_failure:bool ->
  ?fault_seeds:int list ->
  scenario ->
  outcome
(** Pilot once, then run one fresh instance that stops at every boundary
    and judges every adversarial image there (default cap: 64 images per
    point, excess counted in [truncated]); after each boundary the world
    runs on from its exact pre-check state. Divergence from the pilot (a
    boundary not reached, or a different completed-op count or
    dirty-line set at a boundary) is itself reported as a failure: the
    explorer's soundness rests on deterministic execution.

    [recover_check] runs once per distinct image per segment: a maximal
    run of boundaries with no NVMM write-back among their events and one
    [oracle_key] value (each boundary its own segment when the key is
    [None]). Within a segment the persisted image is fixed, so what a
    variant installs on it determines the image; a repeat takes the
    verdict of its first recovery, and a boundary whose images all
    repeat is not suspended at all.

    Each seed in [fault_seeds] (default none) multiplies the image set:
    every adversarial image is additionally checked with the
    {!Faultplan} derived from (seed, crash index, dirty lines) installed
    on top, against [recover_check_faulty]. These images are always
    recovered. *)

val check_point :
  ?fault_seed:int ->
  scenario ->
  crash_index:int ->
  variant:variant ->
  (unit, string) result
(** Replay a single (crash point, image variant, optional fault seed)
    tuple — counterexample reproduction: {!explore}'s checking run,
    recovering only that image at that boundary and stopping there.
    Without a memo, it is the independent reference the memo's verdicts
    are tested against. *)
