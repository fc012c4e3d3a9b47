(** Litmus programs: tiny multi-threaded sequences of persistent-memory
    operations over a handful of named word locations with an explicit
    cache-line layout.

    Each thread is a straight-line list of ops; there is no control
    flow, so the set of executions is exactly the set of interleavings
    and the axiomatic evaluator ({!Axiom}) can enumerate it. [Crash]
    halts every thread the moment it executes; a program without an
    explicit [Crash] crashes implicitly after all threads finish. All
    locations start at 0 (the zeroed NVMM image).

    The textual encoding ([to_string]/[of_string]) is the replay
    format: counterexamples print as parseable program text, and
    [respct_experiments replay] reads it back. *)

type loc = string
type reg = string

type op =
  | St of loc * int  (** store a constant *)
  | Ld of loc * reg  (** load into a (volatile, unobservable) register *)
  | Pwb of loc  (** [clwb] of the location's cache line *)
  | Psync  (** [sfence] *)
  | Faa of loc * int  (** atomic fetch-and-add by a constant *)
  | Crash  (** power failure: halts all threads *)

type t = {
  name : string;
  layout : (loc * int * int) list;
      (** location, cache-line index, word offset within the line.
          Distinct locations must occupy distinct slots. *)
  threads : op list list;
}

val locs : t -> loc list
(** Declared locations, in layout order (the outcome-tuple order). *)

val line_of : t -> loc -> int
val offset_of : t -> loc -> int

val lines : t -> int list
(** Distinct line indices used by the layout, sorted. *)

val op_loc : op -> loc option
val has_crash : t -> bool

val regs : t -> reg list
(** Registers named by [Ld] ops, sorted, deduplicated. *)

val check : ?line_words:int -> t -> string list
(** Well-formedness diagnostics (empty means well-formed): non-empty
    layout and thread list, distinct locations on distinct slots,
    offsets within [line_words] (default 8), every op over a declared
    location. *)

val well_formed : ?line_words:int -> t -> bool

val to_string : t -> string
(** Replay text; parseable by {!of_string} (round-trips). *)

val of_string : string -> (t, string) result
(** Parse the replay format: one item per line — [litmus NAME],
    [loc NAME LINE OFFSET], [thread ...] opening a thread, then ops
    ([st l v] / [ld l r] / [pwb l] / [psync] / [faa l k] / [crash]).
    Blank lines and [#]-prefixed comment lines are skipped. The parsed
    program is {!check}ed. *)
