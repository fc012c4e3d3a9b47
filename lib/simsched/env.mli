(** Execution environment binding a memory backend to a {!Scheduler}.

    Simulated programs access memory exclusively through these wrappers:
    latencies are charged to the running thread's virtual clock and every
    access is a preemption point. The backend is usually the simulator
    ({!make}); {!make_backend} runs the same programs over any
    {!Simnvm.Backend.t} (e.g. a memory-mapped file).

    Both couple the memory to the scheduler's bus
    ({!Scheduler.trace_bus}), so the world has one event stream: the
    memory publishes each load, store, pwb and psync (with its cache
    outcome and write-backs) before it lands; Env adds only an [Rmw]
    marker after each {!cas}/{!faa} and a [Compute] event per
    {!compute}. *)

type t

val make : Simnvm.Memsys.t -> Scheduler.t -> t
(** Couple a memory system with a scheduler: [make_backend] of
    [Simnvm.Backend.of_memsys mem], keeping [mem] for {!mem}. *)

val make_backend : Simnvm.Backend.t -> Scheduler.t -> t
(** Couple an arbitrary backend with a scheduler: installs the
    scheduler's bus, charge hook and thread-id provider through the
    backend record. *)

val mem : t -> Simnvm.Memsys.t
(** The simulator underneath, when there is one.
    @raise Invalid_argument if the world runs over an external backend. *)

val backend : t -> Simnvm.Backend.t
(** The backend ops record — always available. For {!make} worlds this is
    [Simnvm.Backend.of_memsys] of the simulator. *)

val sched : t -> Scheduler.t

val load : t -> Simnvm.Addr.t -> int
(** Read a word; charges latency; preemption point. *)

val store : t -> Simnvm.Addr.t -> int -> unit
(** Write a word; charges latency; preemption point. *)

val pwb : t -> Simnvm.Addr.t -> unit
(** clwb the word's line; preemption point. *)

val psync : t -> unit
(** sfence; preemption point. *)

val serialize_rmw : t -> Simnvm.Addr.t -> (unit -> 'a) -> 'a
(** Run [f] inside the exclusive-ownership window of the address's cache
    line: conflicting atomic sequences on one line serialise in virtual
    time, as the line does between cores. Used by lock-free algorithms for
    their linearisation + flush chains. *)

val cas : t -> Simnvm.Addr.t -> expected:int -> desired:int -> bool
(** Atomic compare-and-swap (no preemption point between read and write).
    On the bus: the memory's load (and store, when it succeeds), then an
    [Rmw] marker. *)

val faa : t -> Simnvm.Addr.t -> int -> int
(** Atomic fetch-and-add; returns the previous value. On the bus: the
    memory's load and store, then an [Rmw] marker. *)

val compute : t -> float -> unit
(** Charge pure computation time (non-memory work of a kernel); publishes
    a [Compute] event. *)

val line_words : t -> int
(** Cache-line size of the underlying memory system, in words. *)

val pool_makespan : t -> pool:int -> (unit -> unit) -> float
(** [pool_makespan t ~pool walk] runs [walk] as a pool of [pool] flusher
    threads sharing it evenly (at least one): the memory charges of its
    accesses are added up off the running thread's clock, through the
    backend's charge hook, and their sum divided by the pool width is
    charged to the running thread as the pool's makespan, which is
    returned. The walk must not yield: it runs with the charge hook
    diverted. The one cost model of the ResPCT, Montage and Dali flusher
    pools. *)
