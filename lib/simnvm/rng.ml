(* Deterministic splitmix64 PRNG.

   All randomness in the simulator flows through explicitly seeded [Rng.t]
   values so that every experiment and every crash-injection test is exactly
   reproducible from its seed.

   The 64-bit state lives in 8 bytes, read and written with the unboxed
   [Bytes] int64 primitives: a boxed [int64] field would allocate a fresh
   block at every draw, and the memory draws once per store. *)

type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 (Int64.of_int seed);
  t

let blit src dst = Bytes.blit src 0 dst 0 8

(* splitmix64 step (Steele, Lea, Flood 2014). *)
let[@inline] next_int64 t =
  let open Int64 in
  let z = add (Bytes.get_int64_le t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let bits53 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11)

(* 53 uniform mantissa bits in [0, 1). *)
let[@inline] float t = float_of_int (bits53 t) /. float_of_int (1 lsl 53)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let split t = create (Int64.to_int (next_int64 t))
