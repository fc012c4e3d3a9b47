(** Job lists (DESIGN.md section 17). A checking campaign, a figure and a
    perf sweep are each an array of independent jobs and one closing
    step. A job prints nothing, writes none of the run's files (a
    file-image job keeps its trial images in a scratch directory of its
    own) and reads no mutable state that another job writes, so the jobs
    may run in any order and give the same results. Everything a run
    prints or writes is a function of the job results, taken in job
    order. *)

type result = {
  ok : bool;  (** the verdict *)
  text : string;  (** what the run prints for it: whole lines *)
  json : Json.t;
      (** its rows of the run's JSON document: one row, a [List] of rows,
          or [Null] for none *)
  count : int;
      (** what it counted for the closing step's summary (violations,
          failures or findings; 0 when the summary reads none) *)
  counterexample : string option;
      (** a shrunk counterexample's text, for the run's counterexample
          file *)
}
(** What a checking campaign's job returns. *)

val result :
  ?json:Json.t ->
  ?count:int ->
  ?counterexample:string ->
  ok:bool ->
  string ->
  result
(** A job's result; [json] defaults to [Null] and [count] to 0. *)

type ('a, 'b) t = {
  jobs : (unit -> 'a) array;  (** each job returns an ['a] *)
  close : 'a array -> 'b;
      (** the closing step: from every job's result, in job order, what
          the run gives *)
}

type campaign = (result, result) t
(** A checking campaign: its closing step gives the run's whole text,
    its verdict, its JSON document and the counterexample it writes. *)

val run : ('a, 'b) t -> 'b
(** Run the jobs one after another, then the closing step. *)

val grid :
  'r list -> 'c list -> ('r -> 'c -> 'a) -> (('r * 'a list) list -> 'b) ->
  ('a, 'b) t
(** [grid rows cols job close] is a sweep: one job per row and column,
    row by row; the closing step gets each row with its columns' results
    in order. *)

val concat : result array -> result
(** The plain closing step: every verdict holds, the texts and counts
    add up, the JSON is the [List] of every job's rows and the
    counterexample is the last one a job returned. *)

val append : campaign -> campaign -> campaign
(** One campaign after another: each closing step reads its own jobs'
    results; texts join, verdicts and counts combine, the last
    counterexample wins, and the two documents' [Obj] fields join in
    order. *)
