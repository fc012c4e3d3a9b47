(** Recovery procedure (paper Figure 5), parallelised over the InCLL
    registry as in the Figure 12 experiment.

    Call after {!Simnvm.Memsys.crash}; then attach a new runtime with
    [Runtime.restart ~reflush:report.rolled_back]. Rollback is idempotent:
    a crash during recovery simply re-runs it.

    {!run} is the original, trusting scan: correct on perfect media. For
    images written under [Runtime.config.integrity], {!run_verified}
    additionally proves what it restores: it cross-checks the epoch word
    against the double-buffered checkpoint-commit record (picking the
    newest CRC-certified slot), verifies every cell's {!Checksum} seal,
    retries transient media errors with bounded backoff, scrubs
    persistently failing lines, and reports everything unprovable in a
    structured {!verdict} — fail-stop, never fail-silent.

    Both scans roll back cells whose epoch tag is {e at least} the failed
    epoch: a crash during a pipelined overlapped flush leaves cells logged
    in the failed epoch and in its successor, and both must restore. On
    classic images the predicate degenerates to equality. *)

type report = {
  failed_epoch : int;  (** epoch the crash interrupted *)
  scanned : int;  (** registry entries examined *)
  rolled_back : Incll.cell list;
      (** cells restored from their backup; feed to [Runtime.restart] *)
  duration_ns : float;
      (** virtual time of the recovery: the makespan of {!run}'s parallel
          scan, the sum of {!run_verified}'s charges *)
  rp_ids : (int * int) list;
      (** per thread slot, the restart-point id to resume from *)
}

(** One detected-and-classified piece of media damage. *)
type damage =
  | Torn_record of { cell : Incll.cell }
      (** a quiescent cell's record failed its CRC; the certified backup
          was restored, which is one epoch stale — a salvage *)
  | Torn_log of { cell : Incll.cell }
      (** the cell's backup/epoch seal is broken: its undo log is
          unprovable, the cell was left untouched (quarantined) *)
  | Metadata_torn of { cell : Incll.cell }
      (** same damage on a cursor / slot-count / registry-length cell: the
          scan itself ran on unproven input *)
  | Tag_restored of { cell : Incll.cell }
      (** the cell read quiescent but its log seal only verifies under one
          of the in-flight epochs (the failed epoch, or its successor
          mid-overlap) — the epoch tag was damaged. The certified backup
          was restored; reported, not proven exact (CRC-16 can collide) *)
  | Commit_repaired of { epoch : int }
      (** the sealed epoch word held and neither commit slot agreed with
          it; both slots were rewritten from the certified epoch — a
          proven repair *)
  | Epoch_restored of { epoch : int }
      (** the epoch word's seal was broken; it was rewritten from the
          newest CRC-certified commit slot. The crash may have sat in the
          pre-bump commit window one epoch earlier, so the image is
          best-effort, not proven exact *)
  | Commit_broken of { epoch_word : int; commit_word : int }
      (** neither the epoch word nor the commit record is certifiable: the
          failed epoch itself is unknown *)
  | Registry_corrupt of { addr : int }
      (** a registry entry or slot-table word failed its summary CRC or
          bounds check and was skipped *)
  | Range_out_of_bounds of { addr : int; base : int; count : int }
      (** a registry entry decoded to cells outside the heap; refused *)
  | Media_failed of { line : int }
      (** the line kept raising [Media_error] past the retry budget and
          was scrubbed: its content is lost *)

(** Outcome of a verified recovery, ordered by severity. [Clean] and
    [Repaired] guarantee the exact last-checkpoint snapshot was restored;
    [Salvaged] means damage was detected and explicitly reported but the
    image may be degraded (stale or quarantined cells); [Unrecoverable]
    means the metadata needed to interpret the image is itself unprovable
    and the caller must fail stop. *)
type verdict =
  | Clean
  | Repaired of damage list
  | Salvaged of damage list
  | Unrecoverable of damage list

type verified = {
  vreport : report;  (** the usual report (restart consumes it) *)
  verdict : verdict;
  read_retries : int;  (** media errors retried during the scan *)
}

val pp_verdict : verdict Fmt.t

val exact_image : verdict -> bool
(** Does the verdict promise a bit-exact last-checkpoint snapshot?
    ([Clean] and [Repaired] do.) *)

val run :
  ?threads:int -> ?layout:Layout.t -> ?spans:Obs.Span.t -> Simnvm.Memsys.t -> report
(** Roll back every InCLL cell modified during the failed epoch and
    re-persist it. [threads] sizes the parallel scan (default 1). [layout]
    defaults to the layout induced by {!Runtime.default_config}; pass the
    runtime's own layout when it used a custom config. [spans] receives a
    single ["recovery"] span covering the parallel scan's virtual makespan.

    Trusts the image. On faulty media it cannot hang or escape the heap
    (registry lengths and decoded ranges are clamped) but it can silently
    restore wrong data — use {!run_verified} on integrity-mode images. *)

val run_verified :
  ?max_read_retries:int ->
  ?layout:Layout.t ->
  ?spans:Obs.Span.t ->
  Simnvm.Memsys.t ->
  verified
(** Integrity-checked, self-healing recovery for images written under
    [Runtime.config.integrity]. Sequential scan: derives the failed epoch
    from the commit record, verifies every seal before trusting it,
    repairs what a CRC proves, quarantines what it cannot, retries each
    [Media_error] up to [max_read_retries] times (default 4) with
    exponential virtual-time backoff before scrubbing the line. [layout]
    defaults to the integrity layout induced by {!Runtime.default_config}.

    The scan is a plain loop over the memory, with no scheduler: while it
    runs, the memory's charge hook adds to the scan's clock and its
    thread id is 0; on return or raise, the memory is left charging
    nothing with thread id -1, as outside any simulated thread. Its
    accesses publish on the memory's current bus.
    @raise Invalid_argument if [layout] was built without [~integrity]. *)

val run_verified_backend :
  ?max_read_retries:int ->
  ?layout:Layout.t ->
  ?spans:Obs.Span.t ->
  Simnvm.Backend.t ->
  verified
(** {!run_verified} over an arbitrary persistence backend. Additionally
    hardened against truncated media: an address the backend cannot serve
    (it raises [Invalid_argument], e.g. a file cut short by a crash during
    growth) grades into the damage taxonomy ([Range_out_of_bounds], then
    [Metadata_torn]/[Torn_log] as the zero reads fail their seals) instead
    of escaping as a raw exception. *)
