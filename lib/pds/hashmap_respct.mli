(** ResPCT-instrumented lock-based hash map.

    Instrumentation follows the paper's section 3.3.2 rules with restart
    points placed after each operation: bucket heads, node [next] pointers
    and node values are InCLL variables (WAR across RPs); node keys are
    written once and only tracked. Nodes are line-aligned 8-word blocks
    (the layout change the paper's section 6 discusses). *)

type t

val create : Respct.Runtime.t -> slot:int -> buckets:int -> t
(** Allocate bucket-head cells from the runtime's persistent heap; call
    from a simulated thread. @raise Invalid_argument if [buckets <= 0]. *)

val insert : t -> slot:int -> key:int -> value:int -> bool
(** The caller's slot must be the executing thread's slot (it owns the
    tracking list the update is recorded in). *)

val search : t -> slot:int -> key:int -> int option
val remove : t -> slot:int -> key:int -> bool

val ops : t -> Ops.map
(** Harness-facing record; [map_rp] is [Runtime.rp]. *)

val persisted_bindings : Simnvm.Memsys.t -> t -> (int * int) list
(** Recovery-time oracle: the logical (key, value) bindings readable from
    the NVMM image, sorted (crash-consistency tests compare this against
    the snapshot of the last checkpoint). *)

val heads : t -> int
(** Base address of the packed bucket-head cell array (log it so an
    out-of-process oracle can rebuild the walk with {!bindings_of}). *)

val buckets : t -> int

val compare_binding : int * int -> int * int -> int
(** The order of the sorted binding lists below: by key, then by value
    (the order polymorphic [compare] gives, typed). *)

val bindings_of :
  read:(int -> int) ->
  line_words:int ->
  fuel:int ->
  heads:int ->
  buckets:int ->
  (int * int) list
(** The walk underneath {!persisted_bindings}, parameterised over the read
    function and geometry: pass a backend's [persisted] (durable image) or
    [peek] (coherent view) to take the oracle reading from any vantage
    point, including a process that holds no [t].
    @raise Failure on a cyclic chain (fuel exhausted). *)
