(** Generic epoch/quiescence service for the checkpointing baselines
    (PMThreads, Montage, Dali): workers call {!pause_point} between
    operations; the periodic coordinator raises the gate, waits for every
    registered worker to pause, runs the epoch body (copying shadow pages,
    flushing payload buffers, ...) and releases everyone. *)

type t

val create : Simsched.Scheduler.t -> max_threads:int -> t

val register : t -> slot:int -> unit
val deregister : t -> slot:int -> unit

val pause_point : t -> slot:int -> unit
(** Worker-side safe point: blocks while an epoch boundary is running. *)

val allow : t -> slot:int -> unit
(** Mark the worker paused before a blocking call so epochs can proceed
    without it (the analogue of ResPCT's checkpoint_allow). *)

val prevent : t -> slot:int -> unit
(** Resume after the blocking call, waiting out any ongoing epoch. *)

val start : t -> period_ns:float -> (unit -> unit) -> unit
(** Spawn the periodic coordinator running the body at each boundary. *)

val stop : t -> unit
(** Ask the coordinator to exit at its next boundary. *)

val epochs : t -> int
(** Completed epoch boundaries. *)
