(** Deterministic media-fault plans layered on the explorer's adversarial
    crash images: a pure function of (fault seed, crash index, dirty-line
    set), so every CI failure line replays bit-for-bit. *)

type op =
  | Tear of { lineno : int; keep : int }
      (** sub-line tear: the [keep] subset of the line's dirty words comes
          from the crashing cache, the rest reverts to the pre-crash
          persisted content — unreachable under PCSO *)
  | Poison of { lineno : int }
      (** loads raise {!Simnvm.Memsys.Media_error} until the line is
          scrubbed *)
  | Bitflip of { addr : int; bit : int }  (** one persisted bit flipped *)
  | Transient of { lineno : int }
      (** one-shot read fault; disarms after the first raise (the retry
          path's negative control) *)

val derive :
  seed:int ->
  crash_index:int ->
  line_words:int ->
  Simnvm.Memsys.dirty_line list ->
  op list
(** One or two fault operations, preferring dirty lines as targets (the
    metadata region when there are none). Equal inputs give equal plans. *)

val apply :
  Simnvm.Memsys.t ->
  base:Simnvm.Memsys.snapshot ->
  dirty:Simnvm.Memsys.dirty_line list ->
  op list ->
  unit
(** Install a plan into the post-crash persistent image. [base] must be
    the live snapshot taken right after the crash, before write-back
    variants were poked: tears read their reverted words from it with
    {!Simnvm.Memsys.snapshot_persisted}. [dirty] is the dirty-line set
    captured just before the crash; tears combine the two below line
    granularity. *)
