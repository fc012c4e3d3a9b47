(* Checkpoint-period and RP-placement tuning (paper sections 5.2 and 5.3).

   Shows the two knobs a ResPCT user controls:
   - the checkpoint period: shorter periods mean less lost work after a
     crash but more time spent flushing (Figure 11's trade-off);
   - RP granularity: restart points after every item force persistent
     accumulators (InCLL on the hot path); batching keeps the hot path
     volatile (the paper's LR story: 9x -> 20%).

   Run with: dune exec examples/checkpoint_tuning.exe *)

let () =
  let scale =
    {
      Harness.Experiments.small with
      Harness.Experiments.sweep_threads = [ 16 ];
      duration_ns = 1.0e6;
      map_prefill = 10_000;
      buckets = 5_000;
    }
  in
  print_endline "Checkpoint-period sweep (write-intensive HashMap, 16 threads):";
  let wi = Harness.Experiments.Map 90 in
  let base =
    Harness.Experiments.point_mops
      (Harness.Experiments.point scale Harness.Systems.Transient_dram wi
         ~threads:16)
  in
  List.iter
    (fun period_ns ->
      let p =
        {
          (Harness.Experiments.params_for scale ~threads:16
             ~kind:Harness.Systems.Respct)
          with
          Harness.Systems.period_ns;
        }
      in
      let pt =
        Harness.Experiments.point ~params:p scale Harness.Systems.Respct wi
          ~threads:16
      in
      let mops = Harness.Experiments.point_mops pt in
      Printf.printf
        "  period %6.0f us: %5.2f Mops/s (%.2fx of DRAM), effective period \
         %.0f us\n"
        (period_ns /. 1e3) mops (mops /. base)
        (Harness.Experiments.point_extra_float pt "effective_period_ns"
        /. 1e3))
    [ 8_000.0; 32_000.0; 128_000.0; 512_000.0 ];
  print_endline "";
  print_endline "RP granularity on the LR kernel (64 threads):";
  let s = { Harness.App_experiments.small with Harness.App_experiments.lr_points = 100_000 } in
  List.iter
    (fun (label, naive) ->
      let t =
        Harness.App_experiments.run_app s Harness.App_experiments.App_respct
          (`Linreg naive)
      in
      Printf.printf "  %-28s %8.0f us\n" label (t /. 1e3))
    [ ("RP per batch of 1000 points", false); ("RP per point (naive)", true) ]
