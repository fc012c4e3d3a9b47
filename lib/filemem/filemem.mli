(** File-backed persistence backend over a memory-mapped file, implementing
    the {!Simnvm.Backend} contract for real-process crash testing.

    The mapping is the durable medium; a process-local mirror array plays
    the cache (and genuinely dies with the process, which is what makes a
    SIGKILL a crash). [pwb] marks the word's line pending, [psync] copies
    pending dirty lines mirror → mapping in pwb issue order — psync is
    load-bearing, so eliding it ({!arm_mutant} [Elide_psync]) observably
    loses data. Every line write-back goes through a one-slot journal in
    the file, making it SIGKILL-atomic: a reopened image contains each
    line's old snapshot or its new one, never a torn mixture (the PCSO
    line-snapshot property InCLL relies on).

    Caveat: mmap stores survive process death in the kernel page cache, so
    this backend exercises process-crash durability only — not power
    failure (no msync is available; see DESIGN.md §14). *)

type config = {
  line_words : int;
  nvm_words : int;
  dram_words : int;  (** volatile scratch; lives only in the mirror *)
  latency : Simnvm.Latency.t;
  evict_rate : float;
      (** per-store probability of a seeded spontaneous line write-back *)
  seed : int;  (** seeds the eviction RNG — replayable *)
}

val default_config : config
(** Memsys-compatible geometry, [evict_rate = 0.0]. *)

type meta = { max_threads : int; registry_per_slot : int; integrity : bool }
(** Layout metadata stored in the durable header so a surviving file is
    self-describing: recovery rebuilds {!Respct.Layout} from it alone. *)

type mutant = Elide_psync
    (** planted bug for the prockill harness: [psync] charges and counts
        but performs no write-back *)

type open_error =
  | Too_short of { bytes : int }  (** smaller than one header *)
  | Bad_magic of { found : int64 }
  | Bad_version of { found : int }
  | Header_corrupt  (** header checksum mismatch (torn header write) *)
  | Bad_geometry of string  (** implausible or inconsistent dimensions *)

val pp_open_error : open_error Fmt.t

type t

val create : ?meta:meta -> config -> path:string -> t
(** Create (or truncate) the file, write the self-describing header, zero
    the image. @raise Invalid_argument on implausible geometry. *)

val open_existing :
  ?latency:Simnvm.Latency.t ->
  ?evict_rate:float ->
  ?seed:int ->
  path:string ->
  unit ->
  (t, open_error) result
(** Reopen a surviving file: validate the header (magic, version,
    checksum, geometry), grow a truncated file back to its claimed
    geometry (the missing tail reads as zeros, which recovery grades
    through its damage taxonomy), and replay the write-back journal if a
    kill interrupted a line copy. Never raises on malformed files. *)

val close : t -> unit
val config : t -> config
val meta : t -> meta
val stats : t -> Simnvm.Stats.t

val was_truncated : t -> bool
(** Did {!open_existing} find the file shorter than its header claimed? *)

val arm_mutant : t -> mutant -> unit
(** Plant a bug from this point on (initialisation done before arming
    stays durable). *)

val backend : t -> Simnvm.Backend.t
(** The backend record: run a world over it with
    [Simsched.Env.make_backend], recover with
    [Recovery.run_verified_backend]. *)

val persisted : t -> int -> int
(** Durable-image word (the mapping), host-level. *)

val crash : t -> unit
(** In-process power cut: reload the mirror from the durable image, zero
    the volatile region, drop dirty/pending state. (The prockill harness
    crashes with a real SIGKILL instead.) *)
