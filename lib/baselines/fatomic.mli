(* Failure-atomic sections for the durably linearizable baselines.

   The transient structures from [Pds] run over an intercepted memory
   interface that records the read and write sets of the current operation;
   [commit] then applies one of two published persistence disciplines:

   - [Clobber] (Clobber-NVM, ASPLOS'21): undo-log only the WAR variables
     (stores whose address was read earlier in the same operation); each log
     entry must persist before the overwrite (pwb + psync on the log), and
     the write set is flushed with one fence at section exit. Log truncation
     is a lazy store on a hot line.

   - [Quadra] (Trinity/Quadra, PPoPP'21): In-Cache-Line logging — the first
     store to each line pays one extra same-line store (the in-line backup,
     persistence ordering free under PCSO), and the write set is flushed
     with one fence at section exit. No separate log, no log fences: the
     InCLL advantage over Clobber is exactly the missing per-WAR-variable
     pwb+psync.

   Read-only operations have an empty write set and commit for free, as in
   both original systems. *)

type policy = Clobber | Quadra
type t

(* Per-slot undo-log regions of [log_words_per_slot] words start at
   [log_base]. *)
val create :
  Simsched.Env.t ->
  policy:policy ->
  max_threads:int ->
  log_base:int ->
  log_words_per_slot:int ->
  t

(* Intercepted accesses: each charges the interception cost and records
   the address in the current operation's read or write set. *)
val intercepted_load : t -> slot:int -> Simnvm.Addr.t -> int
val intercepted_store : t -> slot:int -> Simnvm.Addr.t -> int -> unit

(* Commit the section: flush the write set, one fence; reset the op
   context. The log is truncated with a lazy store (no fence), as both
   systems do off the critical path. *)
val commit : t -> slot:int -> unit

(* [with_op t ~slot f] runs [f] as one failure-atomic section and commits
   it. *)
val with_op : t -> slot:int -> (unit -> 'a) -> 'a

(* WAR variables undo-logged, and lines flushed at commit, so far. *)
val stats_logged : t -> int
val stats_flushed_lines : t -> int

(* Crash-test shadow: what each published system's recovery procedure
   would reconstruct from its persistent log, maintained host-side.

   Clobber keeps an undo log in NVMM but truncates it with a volatile
   cursor; Quadra's in-line backups are modelled as a time cost only. The
   shadow captures the information those logs durably contain — the
   pre-operation value of every word the in-flight section overwrote
   (Clobber), respectively the per-line store-order image sequence that
   in-line backups pin under PCSO (Quadra) — with zero virtual-time or
   event footprint (Memsys.peek), so watched runs stay bit-identical. *)
val set_shadow : t -> bool -> unit

(* Post-crash recovery against the shadow, applied directly to the NVMM
   image. Clobber undoes every word the in-flight section overwrote (its
   undo log persists before each overwrite, so the pre-image is always
   recoverable). Quadra first validates each written line against the
   sequence of cached images the section produced: under PCSO a write-back
   is a line snapshot, so the persisted line must equal one of them — a
   line matching none is torn (two stores of one line persisted out of
   order), exactly what the word-granular ablation produces and what
   in-line logging cannot recover from. *)
type shadow_recovery =
  | Rolled_back of int  (** in-flight sections undone *)
  | Torn_line of int  (** persisted line state unreachable under PCSO *)

val recover_shadow : t -> shadow_recovery

(* Intercepted memory interface over an NVM arena, for the transient
   structures. *)
val mem : t -> Pds.Bump.t -> Pds.Mem_iface.t
