(* Swaptions (Parsec), the second restart-point placement case study of
   section 5.3. The port and its two placements are described in
   swaptions.ml, whose lines Table 3 counts. *)

type granularity = [ `Per_trial | `Per_swaption ]

type cfg = {
  swaptions : int;
  trials : int;
  nthreads : int;
  granularity : granularity;
}

(* [run env p cfg ~bump] returns (virtual makespan, base address of the
   price vector, one word per swaption allocated from [bump]). *)
val run :
  Simsched.Env.t -> App_env.persistence -> cfg -> bump:Pds.Bump.t -> float * int

(* [expected_price cfg s] is the price [run] must leave for swaption [s]. *)
val expected_price : cfg -> int -> int
