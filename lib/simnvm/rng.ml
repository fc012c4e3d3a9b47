(* Deterministic splitmix64 PRNG.

   All randomness in the simulator flows through explicitly seeded [Rng.t]
   values so that every experiment and every crash-injection test is exactly
   reproducible from its seed. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }
let blit src dst = dst.state <- src.state

(* splitmix64 step (Steele, Lea, Flood 2014). *)
let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let float t =
  (* 53 uniform mantissa bits in [0, 1). *)
  let mask53 = (1 lsl 53) - 1 in
  float_of_int (Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) land mask53)
  /. float_of_int (1 lsl 53)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let split t = create (Int64.to_int (next_int64 t))
