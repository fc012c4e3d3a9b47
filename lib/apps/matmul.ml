(* Matrix multiplication (Phoenix MatMul): C = A x B, rows of C partitioned
   over the worker threads.

   ResPCT port per the paper: a restart point after computing each cell of
   C. Each C cell is written exactly once (no WAR dependency), so it is a
   plain persistent word registered with add_modified -- no InCLL needed.
   A and B are read-only inputs; the loop indices are reinitialised from
   the restart point on recovery. *)

type cfg = { n : int; nthreads : int }

(* One fused multiply-add's worth of non-memory work. *)
let fma_ns = 1.0

(* Returns (virtual makespan, base address of C). *)
let run env persistence (cfg : cfg) ~bump =
  let n = cfg.n in
  let a = ref 0 and b = ref 0 and c = ref 0 in
  let setup () =
    a := App_env.alloc persistence bump ~slot:0 ~words:(n * n);
    b := App_env.alloc persistence bump ~slot:0 ~words:(n * n);
    c := App_env.alloc persistence bump ~slot:0 ~words:(n * n);
    for i = 0 to (n * n) - 1 do
      Simsched.Env.store env (!a + i) ((i * 7) + 1);
      Simsched.Env.store env (!b + i) ((i * 13) + 2)
    done
  in
  let makespan =
    App_env.run_workers ~setup env persistence ~nthreads:cfg.nthreads
      (fun ~slot ->
      let rows_per = (n + cfg.nthreads - 1) / cfg.nthreads in
      let lo = slot * rows_per and hi = min n ((slot + 1) * rows_per) in
      for i = lo to hi - 1 do
        for j = 0 to n - 1 do
          let acc = ref 0 in
          for k = 0 to n - 1 do
            let x = Simsched.Env.load env (!a + (i * n) + k) in
            let y = Simsched.Env.load env (!b + (k * n) + j) in
            acc := !acc + (x * y);
            Simsched.Env.compute env fma_ns
          done;
          App_env.store_once env persistence ~slot (!c + (i * n) + j) !acc;
          (* RP after each cell of the result matrix (paper section 5.3) *)
          App_env.rp persistence ~slot 1
        done
      done)
  in
  (makespan, !c)

(* Reference result for correctness checks. *)
let expected_cell cfg i j =
  let n = cfg.n in
  let acc = ref 0 in
  for k = 0 to n - 1 do
    acc := !acc + ((((i * n) + k) * 7 + 1) * ((((k * n) + j) * 13) + 2))
  done;
  !acc
