(** The benchmark suite: the fig8 map sweep, the fig9 queue sweep, the
    fig8 sweep on pipelined ResPCT and a whole KV-service run, each run
    once through the uninstrumented experiment points. *)

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
