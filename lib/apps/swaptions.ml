(* Swaptions (Parsec): lockless data-parallel Monte-Carlo pricing. Each
   thread prices a disjoint set of swaptions; each price is the mean over
   [trials] simulated paths.

   RP placement (paper section 5.3, "the problem and the solution were very
   similar [to LR]"):
   - [`Per_trial]: an RP after every Monte-Carlo trial forces the running
     sum into an InCLL variable updated per trial — the naive placement;
   - [`Per_swaption]: trials accumulate in a volatile local; only the final
     price is persistent (write-once), with one RP per swaption. *)

type granularity = [ `Per_trial | `Per_swaption ]

type cfg = {
  swaptions : int;
  trials : int;
  nthreads : int;
  granularity : granularity;
}

let trial_compute_ns = 120.0 (* path simulation arithmetic *)

(* Deterministic pseudo-price contribution of one trial. *)
let trial_value s t = ((s * 31) + (t * 17)) mod 1000

(* Returns (virtual makespan, base address of the price vector). *)
let run env persistence (cfg : cfg) ~bump =
  let prices = ref 0 in
  let setup () =
    prices := App_env.alloc persistence bump ~slot:0 ~words:cfg.swaptions
  in
  let makespan =
    App_env.run_workers ~setup env persistence ~nthreads:cfg.nthreads
      (fun ~slot ->
        let per = (cfg.swaptions + cfg.nthreads - 1) / cfg.nthreads in
        let lo = slot * per and hi = min cfg.swaptions ((slot + 1) * per) in
        let acc_cell =
          match (persistence, cfg.granularity) with
          | App_env.Durable rt, `Per_trial ->
              Some (Respct.Runtime.alloc_incll rt ~slot 0)
          | _ -> None
        in
        for s = lo to hi - 1 do
          (match (acc_cell, persistence) with
          | Some cell, App_env.Durable rt ->
              (* naive placement: persistent running sum, RP per trial *)
              Respct.Runtime.update rt ~slot cell 0;
              for t = 1 to cfg.trials do
                Simsched.Env.compute env trial_compute_ns;
                Respct.Runtime.update rt ~slot cell
                  (Respct.Runtime.read rt ~slot cell + trial_value s t);
                App_env.rp persistence ~slot 1
              done;
              App_env.store_once env persistence ~slot (!prices + s)
                (Respct.Runtime.read rt ~slot cell / cfg.trials)
          | _ ->
              let acc = ref 0 in
              for t = 1 to cfg.trials do
                Simsched.Env.compute env trial_compute_ns;
                acc := !acc + trial_value s t
              done;
              App_env.store_once env persistence ~slot (!prices + s)
                (!acc / cfg.trials));
          (* RP after each completed swaption *)
          App_env.rp persistence ~slot 2
        done)
  in
  (makespan, !prices)

let expected_price cfg s =
  let acc = ref 0 in
  for t = 1 to cfg.trials do
    acc := !acc + trial_value s t
  done;
  !acc / cfg.trials
