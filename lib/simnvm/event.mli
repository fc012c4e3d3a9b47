(** The one typed event stream of a simulated world.

    Each world has one {!bus}, owned by its scheduler
    ([Simsched.Scheduler.trace_bus]). One publisher per event:
    - the memory ({!Memsys}, or any backend such as Filemem) publishes
      every access, cache outcome, write-back, persistence instruction,
      crash and media event, {e before} the access lands;
    - [Simsched.Env] publishes {!Rmw} markers and {!Compute} charges;
    - [Simsched.Mutex] publishes {!Acquire}/{!Release};
    - the ResPCT runtime publishes {!Restart_point}.

    [Simsched.Env.make] couples the memory to the scheduler's bus
    ({!Memsys.set_bus}, [Backend.set_bus]); a memory that no scheduler
    has claimed publishes on a bus of its own ({!Memsys.bus}). {!Stats},
    the observability probes, the crash explorer and the trace analyses
    are ordinary subscribers. *)

type backing = Nvm | Dram

type t =
  | Load of { tid : int; addr : int }
  | Store of { tid : int; addr : int }
  | Hit of { addr : int }  (** access served by the cache *)
  | Miss of { backing : backing; addr : int; prefetched : bool }
      (** line fill from the backing store (possibly the prefetch stream) *)
  | Writeback of { backing : backing; line : int }
      (** dirty line persisted to its backing store (any cause) *)
  | Pwb of { tid : int; addr : int; dirty : bool }
      (** clwb issued; [dirty] tells whether a write-back actually happened *)
  | Psync of { tid : int }  (** sfence *)
  | Eviction of { line : int }
      (** spontaneous background eviction (the hazard undo logging fights) *)
  | Crash of { eadr : bool }  (** power failure *)
  | Media_error of { addr : int; line : int; transient : bool }
      (** a load touched a poisoned (or transiently failing) line; the
          matching {!Memsys.Media_error} exception is raised after this *)
  | Media_scrub of { line : int }
      (** a poisoned line was cleared (content lost, media reusable) *)
  | Rmw of { tid : int; addr : int }
      (** closes one atomic CAS/FAA at [addr]: its load (and, when it
          wrote, its store) are the preceding accesses of [tid] to [addr] *)
  | Compute of { tid : int; ns : float }  (** pure computation charge *)
  | Acquire of { tid : int; lock : int }
  | Release of { tid : int; lock : int }
  | Restart_point of { tid : int; id : int }

val pp : t Fmt.t

(** {2 The bus} *)

type bus
type subscription

val create_bus : unit -> bus

val active : bus -> bool
(** Whether any subscriber is attached. Producers guard event construction
    on this, making the disabled path one integer test. *)

val subscriber_count : bus -> int

val emit : bus -> t -> unit
(** Deliver to every subscriber, in attach order. Subscribers must not
    subscribe or unsubscribe from within a callback. *)

val subscribe : bus -> (t -> unit) -> subscription
(** Attach a subscriber; it observes every subsequent event. Steady-state
    subscribe/unsubscribe churn allocates nothing. *)

val unsubscribe : bus -> subscription -> unit
(** Detach one subscriber (no-op if already detached). *)

val record : bus -> (unit -> 'a) -> 'a * t list
(** Run a computation with an accumulating subscriber attached and return
    the events it saw, in program order; the subscriber is detached on
    every exit path. *)
