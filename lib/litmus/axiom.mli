(** Axiomatic persistency spec: the set of post-crash states a litmus
    program admits, by exhaustive enumeration of interleavings and
    per-line write-back nondeterminism (DESIGN.md section 13).

    The volatile semantics is sequential consistency — the simulated
    substrate has a coherent cache and no store buffer — so a state is
    the coherent memory [mem], the persistent image [pmem], and each
    thread's program counter. Ops mutate [mem]; the adversary may at
    any point (including between the last instruction and the power
    failure) complete a {e write-back} moving a line's content from
    [mem] into [pmem]. The post-crash outcome is the [pmem] projection
    over the declared locations, recorded at every terminal state
    (explicit [Crash] executed, or all threads finished). *)

type variant =
  | Pcso
      (** line-snapshot write-back, eager [pwb] (the substrate's
          conservative clwb): the default spec the worlds check against *)
  | Pcso_lazy
      (** the general PCSO [pwb]: issuing marks the line pending, and
          the write-back applies at any later point, forced at latest by
          the next [psync] — a strict superset of [Pcso]'s outcomes *)
  | Eadr
      (** cache in the persistent domain: the crash drains every dirty
          line, so the only outcome per execution is the final [mem]
          (no loss) *)
  | Ablation
      (** word-granular write-back: a spontaneous write-back persists
          any nonempty subset of a line's dirty words, breaking
          same-line persist ordering; explicit [pwb] stays
          line-granular — a strict superset of [Pcso]'s outcomes on
          same-line conflicts *)

val variant_name : variant -> string
val variant_of_string : string -> variant option

module Outcomes : Set.S with type elt = int list

type result = {
  outcomes : Outcomes.t;
      (** each element lists the persisted value of every location, in
          layout order *)
  complete : bool;  (** false iff the state cap was hit (partial set) *)
  states : int;  (** distinct states visited *)
}

val allowed : ?max_states:int -> variant:variant -> Prog.t -> result
(** Memoized DFS over machine states; [max_states] (default 300k)
    bounds it for adversarial generator output — check [complete]
    before treating the set as exact. *)

val enumerate :
  ?max_states:int ->
  variant:variant ->
  record:(int array -> int array -> unit) ->
  Prog.t ->
  bool * int
(** The DFS core under [allowed], exposed for {!Axcheck}: [record]
    fires with the coherent memory and persistent image (in
    {!Prog.locs} order) at every terminal state — including the extra
    terminals post-crash spontaneous write-backs reach. The arrays are
    the working state; copy what you retain. Under [Eadr] the
    observable image is the first array. Returns
    [(complete, states_visited)]. *)

val mem_outcome : result -> int list -> bool

val failed_inclusions : Prog.t -> (variant * variant) list
(** The pairs [(a, b)] among eadr ⊆ pcso, pcso ⊆ pcso-lazy and pcso ⊆
    ablation whose [a] outcomes [p] does not keep within [b]'s. *)

val pp_outcome : Prog.loc list -> int list Fmt.t
val pp_outcomes : Prog.loc list -> Outcomes.t Fmt.t
