(* Cost model of the simulated memory hierarchy, in nanoseconds.

   Defaults follow the DRAM/Optane ratios reported by Yang et al.,
   "An empirical guide to the behavior and use of scalable persistent
   memory" (FAST'20): NVM read latency 2-3x DRAM, significantly more
   expensive write-backs, and a non-trivial cost for clwb/sfence. *)

type t = {
  cache_hit_ns : float;      (* load/store hitting the cache *)
  dram_miss_ns : float;      (* line fill from DRAM *)
  nvm_miss_ns : float;       (* line fill from NVMM *)
  store_extra_ns : float;    (* extra cost of a store over a load *)
  clwb_ns : float;           (* pwb: issue + drain of one line to NVMM *)
  sfence_ns : float;         (* psync: ordering fence *)
  dram_writeback_ns : float; (* dirty-line write-back to DRAM *)
  nvm_writeback_ns : float;  (* dirty-line write-back to NVMM *)
}

let default =
  {
    cache_hit_ns = 4.0;
    dram_miss_ns = 80.0;
    (* Effective NVMM miss latency: idle random-read latency on DCPMM is
       ~300ns (2-3x DRAM, Yang et al.), but out-of-order cores overlap
       misses; 160ns reproduces the application-level Transient<NVMM> /
       Transient<DRAM> ratios the paper reports (Figure 10). *)
    nvm_miss_ns = 160.0;
    store_extra_ns = 2.0;
    clwb_ns = 120.0;
    sfence_ns = 90.0;
    dram_writeback_ns = 40.0;
    nvm_writeback_ns = 140.0;
  }

(* A hierarchy without the DRAM/NVM asymmetry: used for Transient<DRAM>
   configurations where the whole address space behaves like DRAM. *)
let dram_only =
  {
    default with
    nvm_miss_ns = default.dram_miss_ns;
    nvm_writeback_ns = default.dram_writeback_ns;
    clwb_ns = default.clwb_ns;
  }

(* eADR (paper section 6): the cache belongs to the persistent domain, so
   flush and fence instructions are free. Miss costs are unchanged. *)
let eadr_of base = { base with clwb_ns = 0.0; sfence_ns = 0.0 }
