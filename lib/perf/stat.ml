(* Order statistics of benchmark samples. Wall-clock samples on a shared
   machine are contaminated by scheduler noise, so the harness reports
   medians rather than means: one preempted run shifts a mean arbitrarily
   but moves a median by at most one rank. *)

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.median: empty sample";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Percentile of a sorted sample, nearest-rank. *)
let percentile_of_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.percentile: empty sample";
  let rank = int_of_float (Float.round (p *. float_of_int (n - 1))) in
  a.(max 0 (min (n - 1) rank))
