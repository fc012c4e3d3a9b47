(** Static lockset analysis: the forward must-/may-held lockset per CFG
    point, the structural lock lints derived from it, and Eraser-style
    race candidates complementing the dynamic {!Racecheck} vector
    clocks.

    Must-held (intersection over joining paths) is used where a missing
    lock is the hazard: released-not-acquired sites and race
    candidates. May-held (union) is used where holding a lock at all is
    the hazard: locks leaked past thread exit and restart points placed
    inside a critical section (rolling back to such a point would
    re-acquire, or worse re-release, a lock whose state the crash
    destroyed — the runtime requires restart points at lock-free
    quiescence). Both lattices are path-insensitive over-approximations
    in the safe direction for their respective checks. *)

module Locks = Dataflow.Locks

type release_site = { rel_node : int; rel_path : string; rel_lock : int }

type rp_site = {
  rpc_node : int;
  rpc_path : string;
  rpc_rp : int;
  rpc_locks : int list;
}

type thread_summary = {
  ls_thread : string;
  release_unheld : release_site list;
      (** releases of a lock not must-held there (a bug on some path;
          [Simsched.Mutex] raises at run time) *)
  leaked : int list;  (** locks possibly held at thread exit *)
  rp_critical : rp_site list;  (** restart points with may-held locks *)
}

val analyse : Ir.program -> thread_summary list

type access_kind = Acc_read | Acc_write

type race_candidate = {
  rc_var : Ir.var;
  rc_threads : (string * access_kind) list;
  rc_write_write : bool;
}

val races : Ir.program -> race_candidate list
(** Variables accessed by two or more threads, at least once as a
    write, with an empty intersection of must-held locksets over all
    access sites — the Eraser discipline. Path-insensitivity makes this
    a may-race: the dynamic {!Racecheck} can refute a candidate that no
    schedule realises, but a consistently-locked variable is never
    reported. *)
