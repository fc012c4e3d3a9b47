(** Latency cost model of the simulated memory hierarchy (nanoseconds).

    Defaults follow the DRAM/Optane ratios measured by Yang et al. (FAST'20):
    NVMM read latency 2-3x DRAM and markedly more expensive write-backs. *)

type t = {
  cache_hit_ns : float;  (** load/store hitting the cache *)
  dram_miss_ns : float;  (** line fill from DRAM *)
  nvm_miss_ns : float;  (** line fill from NVMM *)
  store_extra_ns : float;  (** extra cost of a store over a load *)
  clwb_ns : float;  (** pwb: issue + drain of one line to NVMM *)
  sfence_ns : float;  (** psync: ordering fence *)
  dram_writeback_ns : float;  (** dirty-line write-back to DRAM *)
  nvm_writeback_ns : float;  (** dirty-line write-back to NVMM *)
}

val default : t
(** Optane-like asymmetric hierarchy. *)

val dram_only : t
(** Same hierarchy with NVMM costs collapsed to DRAM costs; used for the
    paper's Transient<DRAM> configurations. *)

val eadr_of : t -> t
(** [eadr_of base] models eADR (cache in the persistent domain, paper
    section 6): flushes and fences become free. *)
