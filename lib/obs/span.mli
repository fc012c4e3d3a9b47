(* Span-style phase profiling over virtual time.

   Producers (the ResPCT runtime, the recovery procedure) report named
   phases — epoch, checkpoint, flush, recovery — as [t0, t1] intervals on
   the simulation's virtual clock. The recorder keeps the raw intervals
   (bounded, newest dropped beyond the cap) plus exact per-name aggregates,
   so a JSON export carries both a summary breakdown and a sample of
   individual spans for timeline inspection.

   Timestamps are plain floats: obs knows nothing of the scheduler, which
   keeps the dependency graph acyclic (respct depends on obs, not the
   reverse). *)

type t
type span = { name : string; t0 : float; t1 : float }

(* [keep] caps the raw spans retained (default 512). *)
val create : ?keep:int -> unit -> t

(* Record the phase [name] over [t0, t1]. *)
val emit : t -> name:string -> t0:float -> t1:float -> unit

type summary = {
  s_name : string;
  count : int;
  total_ns : float;
  mean_ns : float;
  min_ns : float;
  max_ns : float;
}

(* One summary per phase name, in order of first emission. *)
val breakdown : t -> summary list

(* Spans emitted, and their summed duration, under one name. *)
val count : t -> string -> int
val total_ns : t -> string -> float

(* The retained spans, newest first: at most [keep] of them, the oldest
   emitted. *)
val spans : t -> span list

val reset : t -> unit

(* The breakdown under ["summary"] and the retained spans under
   ["spans"]. *)
val to_json : t -> Json.t
