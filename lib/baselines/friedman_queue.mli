(* FriedmanQueue (Friedman et al., PPoPP'18): durably linearizable
   lock-free FIFO queue in NVMM.

   A Michael-Scott queue whose nodes are persisted before being linked and
   whose link/unlink steps are flushed and fenced — between two and three
   flush+fence pairs per operation, the cost profile the paper's Figure 9
   shows. Nodes are not reclaimed (the published algorithm uses hazard
   pointers and deferred reclamation; the simulation simply leaks, which is
   safe and does not change the per-operation cost). *)

type t

val make_queue : Simsched.Env.t -> Pds.Ops.queue * Pds.Ops.system

(* Crash-test handle: the structure stays exposed for the persisted-image
   reader below. *)
val make_queue_instrumented : Simsched.Env.t -> t * Pds.Ops.queue

(* Recovery-time oracle view: the persisted head pointer names the sentinel;
   the queue contents follow its persisted next chain — what the published
   recovery procedure walks after a crash. Raises [Failure] on a cyclic
   chain. *)
val persisted_contents : Simnvm.Memsys.t -> t -> int list
