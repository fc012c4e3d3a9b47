(* PMThreads (PLDI'20): versioned shadow copies with page-protection
   tracking.

   During an epoch every update goes to a DRAM shadow of the persistent
   state. Modifications are tracked through the OS page-protection
   mechanism: at the start of each epoch the whole persistent heap is
   write-protected (an mprotect + TLB-shootdown storm whose cost grows with
   the heap size), and the first store to each page takes a fault. At the
   epoch boundary all threads quiesce and the dirty pages are copied to
   NVMM by a flusher pool (we parallelised the copy exactly as the paper's
   authors did for their evaluation -- the stock single flusher was the
   bottleneck).

   This reproduces the trade-off the paper describes: excellent on the
   Queue (tiny hot heap: a handful of faults per epoch, DRAM-speed
   operations) and poor on the HashMap (large heap: per-epoch reprotection
   storm plus a fault for every touched page). *)

(* Each structure comes with its system handle. Building it starts the
   epoch coordinator (one epoch every [period_ns], [flusher_pool] flushing
   threads); the restart point is the epoch gate's pause point, and the
   system handle registers workers with the gate and stops the
   coordinator. *)
val make_map :
  Simsched.Env.t ->
  max_threads:int ->
  period_ns:float ->
  flusher_pool:int ->
  buckets:int ->
  Pds.Ops.map * Pds.Ops.system

val make_queue :
  Simsched.Env.t ->
  max_threads:int ->
  period_ns:float ->
  flusher_pool:int ->
  Pds.Ops.queue * Pds.Ops.system
