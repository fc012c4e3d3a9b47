(** Idempotence of executions (paper Table 2 and section 3.3.2, after De
    Kruijf et al., PLDI'12): re-executing a program sub-part from a
    restart point is safe iff no variable's accesses there begin with a
    write-after-read, and the paper logs exactly those variables with
    InCLL. This module is that rule, once, as a streaming automaton —
    driven by {!Exec.interp} over IR variables, by {!Audit} over the
    addresses of a simulated run, and by the list functions below. *)

type classification =
  | No_dependency  (** never written *)
  | Raw  (** written, and no first write preceded by a read: idempotent *)
  | War  (** read before the first write: requires logging *)

(** {2 The automaton} *)

type 'k t
(** Per-thread segment state over keys ['k] (an IR variable or an
    address). A segment is one thread's accesses between two of its
    restart points; a key is WAR once some segment reads it before its
    first write there. *)

val create : unit -> 'k t
val read : 'k t -> tid:int -> 'k -> unit
val write : 'k t -> tid:int -> 'k -> unit

val restart_point : 'k t -> tid:int -> unit
(** Closes thread [tid]'s segment; counts one segment. *)

val verdict : 'k t -> 'k -> classification

val war : 'k t -> 'k list
(** The WAR keys, sorted: the ones the section 3.3.2 rule logs. *)

val write_only : 'k t -> 'k list
(** Written but never WAR, sorted: [add_modified] suffices. *)

val segments : 'k t -> int
(** Restart points seen. *)

(** {2 Straight-line traces} — one thread, one segment *)

type access = Read of string | Write of string

val classify : access list -> string -> classification
(** Classify one variable's dependency pattern in the trace. *)

val idempotent : access list -> bool
(** Whether re-executing the whole trace is safe without logging. *)

val needs_logging : access list -> string list
(** The variables the section 3.3.2 rule marks as requiring InCLL. *)

val table2_raw : access list
(** The paper's Table 2 RAW sequence: [x=5; y=x]. *)

val table2_war : access list
(** The paper's Table 2 WAR sequence: [y=x; x=8]. *)

val pp_classification : classification Fmt.t
