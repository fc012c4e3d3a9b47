(* SOFT (Zuriel et al., OOPSLA'19): lock-free durable hash map.

   Volatile index in DRAM (bucket array + CAS-linked nodes), persistent
   nodes in NVMM holding only the data needed for recovery. Searches touch
   the volatile index only — no locks, no flushes — which is why SOFT
   outperforms even the transient lock-based map on read-intensive
   workloads (paper, Figure 8). Inserts and removes persist the pnode with
   one flush + fence.

   Volatile node: [key; value; pnode; next] in DRAM.
   Persistent node: [key; value; valid] in NVMM.

   The [valid] word models SOFT's per-word validity-bit scheme: it holds an
   integrity tag derived from key and value (never 0), so a torn pnode —
   some words persisted, others not, as word-granular hardware can produce
   before the flush — fails the tag check at recovery and reads as absent,
   exactly like a pnode whose validity bits disagree in the published
   algorithm. Invalidation stores 0. *)

type t

val make_map : Simsched.Env.t -> buckets:int -> Pds.Ops.map * Pds.Ops.system

(* Crash-test handle: the structure stays exposed for the persisted-image
   reader below. *)
val make_map_instrumented : Simsched.Env.t -> buckets:int -> t * Pds.Ops.map

(* Recovery-time oracle view: scan the pnode arena (pnodes are uniform
   3-word blocks, never freed) and keep every pnode whose validity tag
   checks out — exactly what SOFT's recovery rebuilds the map from. A key
   may appear twice (new pnode persisted before the old is invalidated);
   the oracle resolves the choice. *)
val persisted_bindings : Simnvm.Memsys.t -> t -> (int * int) list
