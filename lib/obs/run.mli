(* Structured per-experiment results.

   The harness experiments produce one [point] per configuration they
   measure (system x threads x update ratio ...). A point bundles the
   scalar result (throughput), the throughput series over the measurement
   window when one was sampled, the memory-system counters, the metric
   registry and the span breakdown. [experiment] wraps the points of one
   figure; [document] wraps several experiments into the file handed to
   [--json]. ASCII tables and JSON export are two views of the same
   points. *)

type point = {
  label : string;
  params : (string * Json.t) list;
  throughput_mops : float option;
  series : (string * float list) list;
      (** named numeric series, e.g. per-thread Mops *)
  stats : Simnvm.Stats.t option;
  metrics : Metrics.t option;
  spans : Span.t option;
  extra : (string * Json.t) list;
}

val point :
  ?params:(string * Json.t) list ->
  ?throughput_mops:float ->
  ?series:(string * float list) list ->
  ?stats:Simnvm.Stats.t ->
  ?metrics:Metrics.t ->
  ?spans:Span.t ->
  ?extra:(string * Json.t) list ->
  string ->
  point

(* [experiment name points] is one figure's object; [extra] fields go
   before the points. *)
val experiment :
  ?params:(string * Json.t) list ->
  ?extra:(string * Json.t) list ->
  string ->
  point list ->
  Json.t

(* The [respct-sim/results/v1] document; [meta] fields go before the
   experiments. *)
val document : ?meta:(string * Json.t) list -> Json.t list -> Json.t
