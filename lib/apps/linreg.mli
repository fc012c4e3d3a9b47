(* Linear regression (Phoenix LR), the restart-point placement case study
   of section 5.3. The port and its two placements are described in
   linreg.ml, whose lines Table 3 counts. *)

type granularity = [ `Per_point | `Per_batch of int ]
type cfg = { points : int; nthreads : int; granularity : granularity }
type accumulators = { sx : int; sy : int; sxx : int; sxy : int }

(* [run env p cfg ~bump] returns (virtual makespan, accumulator totals);
   the points are allocated from [bump]. *)
val run :
  Simsched.Env.t ->
  App_env.persistence ->
  cfg ->
  bump:Pds.Bump.t ->
  float * accumulators

(* The totals [run] must produce. *)
val expected : cfg -> accumulators
