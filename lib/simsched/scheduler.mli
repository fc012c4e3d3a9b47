(** Deterministic cooperative scheduler with virtual per-thread clocks.

    Simulated threads are OCaml 5 effect-based fibers. Each thread owns a
    virtual clock in nanoseconds; memory and synchronisation operations
    charge their latency to the running thread's clock, and the scheduler
    always dispatches the ready thread with the smallest clock (conservative
    discrete-event simulation). Lock contention, checkpoint stalls and
    "throughput at N threads" thereby become well-defined virtual-time
    quantities on a single host core, and every execution is reproducible
    from its seed. *)

exception Crashed
(** Raised inside fibers when a simulated power failure interrupts them.
    Simulated code must not catch it. *)

exception Deadlock of string
(** Raised by {!run} when no thread is runnable but some are blocked. *)

type outcome =
  | Completed  (** all threads ran to completion *)
  | Crash_interrupt of float
      (** the virtual crash instant was reached; fibers were discontinued *)

type t

val create :
  ?bus:Simnvm.Event.bus ->
  ?seed:int ->
  ?quantum:float ->
  ?jitter:float ->
  unit ->
  t
(** [create ()] makes a scheduler.
    [bus] is the world's event stream, fresh by default; a scheduler
    built over a memory that already belongs to a world (recovery's)
    passes that memory's bus, so subscribers keep seeing it.
    [quantum] (ns) bounds how far a running thread may overrun the next
    ready thread's clock before {!poll} preempts it: [0.0] gives the most
    faithful interleaving, larger values trade accuracy for speed.
    [jitter] (default [0.0]) randomises charges by the given relative
    amplitude, to vary interleavings across seeds in crash-injection
    tests. [seed] (default 1) seeds the jitter's draws and nothing else:
    without jitter every seed runs the same schedule. *)

val trace_bus : t -> Simnvm.Event.bus
(** This world's one event stream: the memory {!Env.make} couples to it,
    {!Env}, {!Mutex} and the ResPCT runtime publish on it, analyses and
    probes subscribe to it. One bus per world, so traced worlds compose
    and parallel worlds stay isolated. *)

val spawn : ?name:string -> t -> (unit -> unit) -> int
(** Register a new simulated thread and return its tid. Its initial clock is
    the spawner's current clock (0 outside the simulation). *)

val run : t -> outcome
(** Dispatch until every thread finished, the crash instant is reached, or a
    thread raised (the exception is re-raised here).
    @raise Deadlock when only blocked threads remain. *)

val current_tid : t -> int
(** Tid of the running thread. Must be called from inside a fiber. *)

val current_tid_opt : t -> int
(** Tid of the running thread, or -1 outside the simulation. *)

val now : t -> float
(** Virtual clock of the running thread (0 outside the simulation). *)

val elapsed : t -> float
(** Maximum clock over all threads: the virtual makespan of the run. *)

val charge : t -> float -> unit
(** Advance the running thread's clock by a cost in ns (jittered). Does not
    preempt; callers invoke {!poll} at safe points. No-op outside fibers, so
    setup code is free. *)

val charge_hook : t -> float -> unit
(** [charge_hook t] is {!charge} [t] as one closure built over [t]'s
    state, with [charge] inlined into it: the memory's charge hook, which
    {!Env} installs once per world. *)

val tid_hook : t -> unit -> int
(** [tid_hook t] is {!current_tid_opt} [t] as one closure over [t]: the
    memory's thread-id hook, which {!Env} installs once per world. *)

val advance_to : t -> float -> unit
(** Advance the running thread's clock to the given instant if it is behind
    (a happens-before edge: e.g. acquiring a mutex released at that time). *)

val poll : t -> unit
(** Preemption point: switch out if the running clock passed the bound. *)

val yield : t -> unit
(** Unconditional preemption point. *)

val sleep_until : t -> float -> unit
(** Advance the running thread's clock to the given instant and yield; used
    for the periodic checkpoint timer. *)

val sleep : t -> float -> unit
(** [sleep t d] = [sleep_until t (now t +. d)]. *)

val block : t -> unit
(** Park the running thread; it resumes after a matching {!wakeup}. The
    caller must have registered the thread on some wait queue first. *)

val wakeup : t -> int -> at:float -> unit
(** Make a blocked thread ready again, advancing its clock to [at] if that
    is later (the waker's clock: the happens-before edge of the wakeup). *)

val wait_link : t -> int -> int
(** The wait-queue chain, used only by {!Mutex} and {!Condvar}. A thread
    waits on at most one queue at a time, so each thread has one link:
    [wait_link t tid] is the tid queued after [tid] on the queue it waits
    on, -1 if [tid] is that queue's newest waiter. A queue holds only its
    oldest and newest waiters' tids, and allocates nothing. A link means
    something only while its thread waits, and belongs to the scheduler
    the thread blocked in. *)

val set_wait_link : t -> int -> int -> unit
(** [set_wait_link t tid next] sets {!wait_link} [t tid] to [next]: -1
    when [tid] joins a queue at its tail, the newcomer's tid on the
    previous tail. *)

val set_crash_at : t -> float -> unit
(** Declare a power failure at the given virtual instant. *)

val preempt_now : t -> unit
(** Force the running thread to switch out at its next {!poll}, regardless
    of the quantum: targeted preemption injection for schedule exploration
    (call from a {!trace_bus} subscriber at a chosen sync event). No-op outside
    the simulation; the thread still resumes whenever it holds the smallest
    ready clock. *)

val next_lock_id : t -> int
(** A fresh trace identity for a lock, 1, 2, ... in the order this
    scheduler's locks first appear on its bus ({!Mutex}), so the same
    world always names its locks alike. *)
