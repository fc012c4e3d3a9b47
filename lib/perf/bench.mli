(** One benchmark's result and the [respct-sim/bench/v2] document that
    carries a list of them. Every field is deterministic: the document
    records no host time. *)

type t = {
  name : string;
  ops : int;  (** simulated operations completed *)
  sim_ns : float;  (** virtual nanoseconds they covered *)
}

val sim_mops : t -> float
(** Million simulated operations per virtual second. *)

val document : preset:string -> t list -> Obs.Json.t
(** The [respct-sim/bench/v2] document: schema, preset label, and per
    benchmark its name, [ops], [sim_ns] and [sim_mops]. *)

val of_document : Obs.Json.t -> (t list, string) result
(** Read a document back; an error names what is missing or a schema
    other than [respct-sim/bench/v2]. *)
