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

val bits53 : t -> int
(** 53 uniformly distributed non-negative bits: the draw {!float} scales
    to [0, 1), so [bits53 t < n] holds exactly when [float t < r] does on
    the same state, for [n = ⌈r·2{^53}⌉] ([0 < r <= 1]). Comparing against
    a precomputed [n] makes the draw free of float boxing. *)

val float : t -> float
(** Uniform draw from [0, 1): [bits53] divided by [2{^53}]. *)

val bool : t -> bool
(** Fair coin. *)

val split : t -> t
(** Derive an independent generator (for per-thread streams). *)
