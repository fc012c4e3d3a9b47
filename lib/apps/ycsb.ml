(* YCSB-style workload generation (Cooper et al., SoCC'10): a load phase
   populating the store and an operation mix over a zipfian-skewed key
   popularity distribution, as used for the paper's Memcached evaluation
   (Figure 14). *)

type mix = { read_pct : int }

let read_intensive = { read_pct = 90 }
let balanced = { read_pct = 50 }
let write_intensive = { read_pct = 10 }

(* Standard YCSB zipfian generator (Gray et al.'s algorithm): constant time
   per sample after an O(n) zeta precomputation. *)
type zipf = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  threshold : float; (* zeta(2, theta) *)
}

let make_zipf ?(theta = 0.99) n =
  let zeta m =
    let acc = ref 0.0 in
    for i = 1 to m do
      acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    !acc
  in
  let zetan = zeta n in
  let zeta2 = zeta 2 in
  {
    n;
    theta;
    alpha = 1.0 /. (1.0 -. theta);
    zetan;
    eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. zetan));
    threshold = zeta2;
  }

let sample_zipf z rng =
  let u = Simnvm.Rng.float rng in
  let uz = u *. z.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. Float.pow 0.5 z.theta then 1
  else
    int_of_float
      (float_of_int z.n
      *. Float.pow ((z.eta *. u) -. z.eta +. 1.0) z.alpha)
    mod z.n

type op = Get of int | Put of int * int

(* Scramble the zipfian rank so hot keys spread over the key space. *)
let scramble key n = (key * 2654435761) land max_int mod n

let next_op mix z rng =
  let key = scramble (sample_zipf z rng) z.n in
  if Simnvm.Rng.int rng 100 < mix.read_pct then Get key
  else Put (key, Simnvm.Rng.bits rng)
