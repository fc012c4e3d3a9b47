(** Deterministic splitmix64 pseudo-random number generator.

    Every source of randomness in the simulator (eviction, scheduling jitter,
    workload generation, crash times) is an explicitly seeded [Rng.t], making
    all experiments and failure-injection tests reproducible. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds give equal streams. *)

val blit : t -> t -> unit
(** [blit src dst] makes [dst] continue from [src]'s current state, in
    place (save and rewind a generator without allocating). *)

val bits : t -> int
(** 62 uniformly distributed non-negative bits. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** Uniform draw from [0, 1). *)

val bool : t -> bool
(** Fair coin. *)

val split : t -> t
(** Derive an independent generator (for per-thread streams). *)
