(** A small imperative program IR for static persistency analysis.

    Programs declare persistent variables (NVM-resident, checkpointed by
    the ResPCT runtime) and transient variables (re-initialised on
    restart), and run one or more threads of structured statements:
    assignments over integer arithmetic, [if]/[while], lock
    acquire/release and explicit restart points. This is the domain the
    paper's section 6 sketches for automating the section 3.3.2 logging
    rule statically; {!Warstatic} and {!Placement} implement that
    automation over the control-flow graphs built here, and {!Exec} runs
    the same programs dynamically so every static verdict can be checked
    against the trace-based oracles. *)

type var = string

type binop = Add | Sub | Mul | Div | Mod | Eq | Ne | Lt | Le | And | Or

type expr = Int of int | Var of var | Binop of binop * expr * expr

type stmt =
  | Assign of var * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Acquire of int  (** lock id *)
  | Release of int
  | Rp of int  (** explicit restart point with a program-unique id *)
  | Pwb of var
      (** [clwb] of the persistent variable's cache line (litmus programs;
          a volatile no-op in the host interpreter) *)
  | Psync  (** [sfence] ordering fence *)
  | Skip

type thread = { tname : string; body : stmt list }

type program = {
  pname : string;
  persistent : (var * int) list;  (** name, initial value *)
  transient : (var * int) list;
  threads : thread list;
}

val expr_reads : expr -> var list
(** Variables read by an expression, left-to-right depth-first, with
    duplicates preserved (evaluation order of the interpreter). *)

val stmt_writes : stmt -> var list
(** Variables assigned anywhere inside a statement (deduplicated). *)

val declared : program -> var list
val is_persistent : program -> var -> bool

val stmt_rps : stmt -> int list
(** Restart-point ids anywhere inside a statement, in syntactic order. *)

val rp_ids : program -> int list
(** All restart-point ids in program order, duplicates preserved. *)

val max_rp_id : program -> int
(** Largest restart-point id, [-1] when the program has none. *)

val check : program -> string list
(** Well-formedness diagnostics: duplicate declarations, undeclared
    variables, duplicate restart-point ids, negative lock ids, duplicate
    thread names. Empty means well-formed. *)

val well_formed : program -> bool

(** {1 Control-flow graph}

    One CFG per thread. Nodes carry a [path] breadcrumb into the source
    statement list (e.g. ["main[2].body[0].then[1]"]) used verbatim in
    lint diagnostics. A {!Node_branch} evaluates its condition (reading
    its variables) and forks; the loop back-edge targets the branch
    node. *)

type node_kind =
  | Entry
  | Exit
  | Node_assign of var * expr
  | Node_branch of expr
  | Node_acquire of int
  | Node_release of int
  | Node_rp of int
  | Node_pwb of var
  | Node_psync

type node = {
  id : int;
  kind : node_kind;
  path : string;
  mutable succ : int list;
  mutable pred : int list;
}

type cfg = {
  owner : string;  (** thread name *)
  nodes : node array;  (** indexed by [node.id] *)
  entry : int;
  exit_node : int;
}

val cfg_of_thread : thread -> cfg

val node_reads : node_kind -> var list
(** Variables read when executing a node (assign RHS or branch
    condition), in evaluation order with duplicates. *)

val node_write : node_kind -> var option

val pp_stmt : stmt Fmt.t

val program_to_string : program -> string
(** [Fmt.str pp_program], for QCheck counterexample printing. *)
