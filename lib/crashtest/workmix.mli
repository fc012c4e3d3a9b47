(** Deterministic operation mixes and reference-model prefix states, shared
    by the crash explorer and the QCheck generators in test/common. *)

type map_op =
  | Insert of int * int
  | Remove of int
  | Search of int

type queue_op =
  | Enqueue of int
  | Dequeue

val map_ops : ?key_range:int -> seed:int -> n:int -> unit -> map_op list
(** ~60% inserts, ~25% removes, ~15% searches over [1, key_range]; inserted
    values are unique per index and never 0. Equal seeds give equal lists. *)

val churn_ops : ?keys:int -> n:int -> unit -> map_op list
(** Allocator-churn mix: insert keys [1, keys], then round-robin
    [remove(k); insert(k, fresh)] pairs, so nearly every epoch frees map
    nodes and immediately re-allocates. Deterministic (no seed); prefixes
    of a longer run equal shorter runs, so shrinking stays faithful. *)

val queue_ops : seed:int -> n:int -> unit -> queue_op list
(** ~2/3 enqueues of unique non-zero values, ~1/3 dequeues. *)

type ('op, 'state) model = { apply : 'op -> unit; state : unit -> 'state }
(** A reference model: the logical state a correct structure holds,
    stepped one operation at a time. *)

val map_model : unit -> (map_op, (int * int) list) model
(** Sorted bindings. *)

val queue_model : unit -> (queue_op, int list) model
(** Contents, front first. *)

val map_states : map_op list -> (int * int) list array
(** [states.(i)]: sorted logical bindings after the first [i] operations
    (length [n + 1], index 0 is the empty map). *)

val queue_states : queue_op list -> int list array
(** [states.(i)]: queue contents front-first after the first [i] operations. *)

val pp_map_op : map_op Fmt.t
val pp_queue_op : queue_op Fmt.t
val pp_bindings : (int * int) list Fmt.t
val pp_contents : int list Fmt.t
