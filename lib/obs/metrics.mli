(* Metric registry: named counters and virtual-time histograms.

   A registry belongs to one experiment run. Names are get-or-create and
   the registry remembers insertion order, so JSON export is deterministic
   regardless of how lookup is implemented. Counters are plain ints on the
   hot path (one record-field increment); histograms bucket a float sample
   (typically a virtual-time duration in ns) against fixed bounds and keep
   running sum/min/max for the summary line. *)

type t
type counter
type histogram

val create : unit -> t

(* Get-or-create by name; a name already taken by the other kind is
   [Invalid_argument]. *)
val counter : t -> string -> counter

(* Default bounds suit virtual-time durations in ns: 100ns..100ms. *)
val histogram : ?bounds:float array -> t -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val observe : histogram -> float -> unit
val count : histogram -> int
val sum : histogram -> float
val mean : histogram -> float

(* Zero every counter and histogram, keeping the names and their order. *)
val reset : t -> unit

(* One field per name in registration order: a counter as its value, a
   histogram as its summary and buckets. *)
val to_json : t -> Json.t
