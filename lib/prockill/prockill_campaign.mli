(** The SIGKILL campaign over {!Prockill} trials: fault-free kills
    (with recovery-kill sub-trials), then the hunt for the planted
    psync-elision mutant, shrunk to a replayable [# prockill ...] line.
    The kill point is real time, so reproduction is statistical:
    shrinking and [respct_experiments replay] run a candidate several
    times and accept any violating run. *)

val campaign : ?dir:string -> unit -> Prockill.params Obs.Cx.campaign
(** Tag [prockill], keys [seed trial threads keyspace delay_us
    mutant=0|1]: one trial per run, three runs per candidate and per
    replay. Candidates: one thread, half the keyspace, half the kill
    delay (not below 1 ms). Trial files go to [dir], or to a scratch
    directory made and removed around each run. *)

type mutant_result = {
  m_attempts : int;
  m_first : Prockill.outcome option;  (** [None]: the mutant went undetected *)
  m_shrunk : Prockill.params Obs.Cx.shrunk option;
      (** the shrunk, printed and replayed counterexample *)
}

type campaign = {
  c_seed : int;
  c_kills : int;
  c_trials : Prockill.outcome list;
  c_mutant : mutant_result option;
  c_skipped : string option;  (** reason, when fork/SIGKILL is unavailable *)
}

val violation_count : campaign -> int

val run :
  ?kills:int ->
  ?seed:int ->
  ?max_delay_us:int ->
  ?mutant_trials:int ->
  ?progress:(string -> unit) ->
  ?dir:string ->
  unit ->
  campaign
(** Full campaign: [kills] fault-free kill trials (varying thread count,
    keyspace and kill delay, with seeded recovery-kill sub-trials), then
    up to [mutant_trials] attempts to catch the planted psync-elision
    mutant, shrinking the first counterexample. Degrades to a skipped
    campaign (never raises) where [fork] is unavailable. [dir] defaults
    to a {!Prockill.with_scratch_dir} directory. *)

val json_of_campaign : campaign -> Obs.Json.t
(** Schema ["respct-prockill/v2"]. *)
