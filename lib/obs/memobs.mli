(* Memory-event probe: a Metrics-backed subscriber on a memory's bus.

   Attaching one puts named counters for every memory event class into a
   registry, alongside (not instead of) the memory's Stats record. The
   counter set is richer than Stats where the event carries more detail
   than the historical record kept — clean pwbs and prefetched misses are
   distinguished here. *)

type t

(* Attach to a memory system; returns the subscription for detaching. *)
val attach : Metrics.t -> Simnvm.Memsys.t -> t * Simnvm.Event.subscription
