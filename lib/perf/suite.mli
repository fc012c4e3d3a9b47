(** The benchmark suite: the fig8 map sweep, the fig9 queue sweep, the
    fig8 sweep on pipelined ResPCT and a whole KV-service run. Each
    benchmark executes a whole sweep (every system × every thread count)
    once and reports its total simulated operations and total virtual
    time.

    The sweeps run through the plain experiment points
    ({!Harness.Experiments.map_point}), not the instrumented ones the
    figures use. The probes (Memobs counters, spans, checkpoint
    statistics) do not move virtual time, so the gated numbers would be
    the same either way (test_harness "instrumented points equal plain
    points"). They cost host time: one 16-thread ResPCT map point at small
    scale (release build, 2-vCPU shared VM, 13 runs each) took 0.80–1.02 s
    plain (median 0.92 s) and 0.88–1.09 s instrumented (median 0.97 s). *)

type preset

val default_preset : preset
(** The sweeps at the figures' own scale. *)

val smoke_preset : preset
(** The same sweeps on shrunk worlds: seconds, not minutes. *)

val run : ?only:string -> preset -> Bench.t list
(** Run every benchmark of the preset, or only the one named. *)

val document : preset -> Bench.t list -> Obs.Json.t
(** {!Bench.document} labelled with the preset's name. *)

(** Checkpoint pause: the mutator stall per checkpoint (the whole flush
    in classic mode, only quiescence and handoff in pipeline mode) and
    the background flush that overlapped it, for one classic and one
    pipelined ResPCT map run at the preset's largest thread count. *)
type pause = {
  pause_mode : string;  (** ["classic"] or ["pipeline"] *)
  pause_stall_us : float;
  pause_overlap_us : float;
  pause_checkpoints : int;
}

val checkpoint_pause : preset -> pause list
