(** The benchmark suite: the fig8 map sweep, the fig9 queue sweep, the
    fig8 sweep on pipelined ResPCT and a whole KV-service run. Each
    benchmark executes a whole sweep (every system × every thread count)
    once and reports its total simulated operations and total virtual
    time.

    The suite is one job list ({!Obs.Jobs}): one job per sweep point,
    made by {!Harness.Experiments.point} as for the figures, and one for
    the service run. The closing step reads both the sums and the
    checkpoint-pause rows off those points, so every point runs once. *)

type preset

val default_preset : preset
(** The sweeps at the figures' own scale. *)

val smoke_preset : preset
(** The same sweeps on shrunk worlds: seconds, not minutes. *)

(** Checkpoint pause: the mutator stall per checkpoint (the whole flush
    in classic mode, only quiescence and handoff in pipeline mode) and
    the background flush that overlapped it. *)
type pause = {
  pause_mode : string;  (** ["classic"] or ["pipeline"] *)
  pause_stall_us : float;
  pause_overlap_us : float;
  pause_checkpoints : int;
}

val jobs :
  ?only:string ->
  preset ->
  (Obs.Run.point, Bench.t list * pause list) Obs.Jobs.t
(** Every benchmark of the preset, or only the one named: one job per
    point. The closing step sums each benchmark's [total_ops] and
    [elapsed_ns] in job order, and reads the pause rows (classic, then
    pipeline) off the largest-thread-count ResPCT points of the
    [fig8-map] and [respct-pipe] sweeps; a sweep that did not run, or a
    point that took no checkpoint, gives no row. *)

val document : preset -> Bench.t list -> Obs.Json.t
(** {!Bench.document} labelled with the preset's name. *)
