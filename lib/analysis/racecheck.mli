(** Vector-clock data-race checker for access traces.

    ResPCT assumes race-free lock-based programs (paper section 2.1): two
    conflicting accesses to the same variable must be ordered by the
    happens-before edges of lock release/acquire pairs. This checker
    validates the assumption for recorded traces with the standard
    vector-clock algorithm. *)

type event =
  | Racq of { thread : int; lock : int }
  | Rrel of { thread : int; lock : int }
  | Rread of { thread : int; addr : int }
  | Rwrite of { thread : int; addr : int }

type access = Aread | Awrite

type race = {
  addr : int;
  first_thread : int;  (** the earlier endpoint in trace order *)
  first_access : access;
  second_thread : int;  (** the later, conflicting endpoint *)
  second_access : access;
}
(** One unordered conflicting pair. At least one endpoint is a write;
    [first_access = Aread] means a read raced with a later write. *)

(** {2 Streaming interface} — the shape a trace-bus subscriber needs *)

type t
(** Checker state accumulating happens-before knowledge event by event. *)

val create : unit -> t

val push : t -> event -> unit
(** Feed one event in trace order. *)

val races : t -> race list
(** Races detected so far, in trace order, deduplicated: at most one
    report per (address, unordered thread pair), keeping the first
    conflicting access kinds observed. Long loops that re-race the same
    pair every iteration therefore do not flood the list. *)

val race_count : t -> int
(** Total number of conflicting, unordered access pairs detected,
    {e including} repeats of pairs [races] deduplicates — so
    [race_count t >= List.length (races t)], with equality iff no pair
    raced more than once. *)

(** {2 Batch interface over recorded traces} *)

val check : event list -> race list
(** Conflicting, unordered access pairs, in trace order, deduplicated
    per (address, unordered thread pair) like [races]. *)

val race_free : event list -> bool
(** [check events = []]. *)
