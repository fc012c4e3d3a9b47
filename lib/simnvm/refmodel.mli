(** Naive reference memory model: the executable specification of
    DESIGN.md's PCSO semantics that the optimized {!Memsys} kernel is
    differential-tested against (see test/test_refmodel.ml).

    It follows the kernel's decision procedure — set placement, LRU
    victims, the prefetch window, coherence charges, every RNG draw in the
    same order — but over deliberately simple structures: sparse word-maps
    for the backing stores, an explicit dirty-offset set per line,
    option-valued cache slots, plain lists everywhere. A run records its
    full event stream and accumulates its latency charges, so it can be
    compared against {!Memsys} event-for-event and to float equality on
    total cost. Media faults raise the shared {!Memsys.Media_error}. *)

type t

val create : Memsys.config -> t
(** Fresh model over a zeroed persistent image.
    @raise Invalid_argument if [nvm_words] is not line-aligned. *)

val set_tid_provider : t -> (unit -> int) -> unit
(** Install the running-thread hook. Must be a pure read (the model and
    the kernel may call it a different number of times per operation). *)

val load : t -> int -> int
(** @raise Memsys.Media_error on a miss into a poisoned/transient line. *)

val store : t -> int -> int -> unit
val pwb : t -> int -> unit
val psync : t -> unit
val crash : t -> unit

val persisted : t -> int -> int
val image : t -> int array
val is_cached_dirty : t -> int -> bool

val poison_line : t -> int -> unit
val arm_transient_fault : t -> int -> unit
val scrub_line : t -> int -> unit
val poisoned_lines : t -> int list

val total_charge : t -> float
(** Sum of all latency charges so far, accumulated in operation order. *)

val events : t -> Event.t list
(** Every event emitted so far, in emission order. *)
