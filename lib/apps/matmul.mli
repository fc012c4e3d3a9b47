(* Matrix multiplication (Phoenix MatMul) of Figure 13. The port and its
   instrumentation are described in matmul.ml, whose lines Table 3
   counts. *)

type cfg = { n : int; nthreads : int }

(* [run env p cfg ~bump] returns (virtual makespan, base address of C, an
   n x n row-major matrix allocated from [bump]). *)
val run :
  Simsched.Env.t -> App_env.persistence -> cfg -> bump:Pds.Bump.t -> float * int

(* [expected_cell cfg i j] is the value [run] must leave in C(i, j). *)
val expected_cell : cfg -> int -> int -> int
