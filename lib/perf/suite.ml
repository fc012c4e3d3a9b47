type preset = {
  p_name : string;
  p_benches : (string * (unit -> int * float)) list;
}

(* Total ops and virtual time of [point] over every kind × thread count
   of the sweep, summed in that order. *)
let sweep point (scale : Harness.Experiments.scale) kinds () =
  List.fold_left
    (fun acc kind ->
      List.fold_left
        (fun (ops, sim) threads ->
          let r, _ = point scale kind ~threads in
          ( ops + r.Harness.Workload.total_ops,
            sim +. r.Harness.Workload.elapsed_ns ))
        acc scale.Harness.Experiments.sweep_threads)
    (0, 0.0) kinds

(* A fig8 map point (50% updates), with ResPCT's pipelined checkpointing
   (async epoch advance, double-buffered commits) on or off. *)
let map_point ~pipeline scale kind ~threads =
  let params =
    {
      (Harness.Experiments.params_for scale ~threads ~kind) with
      Harness.Systems.pipeline;
    }
  in
  Harness.Experiments.map_point ~update_pct:50 ~params scale kind ~threads

(* The sharded KV service front-end (lib/service): sessions, admission,
   batching and consistent-hash routing over per-shard runtimes, on the
   Sim backend. The sample is whole-service: completed requests over the
   run's virtual makespan, so a regression anywhere in the serving path
   (router, queues, batcher, shard runtimes, rolling checkpoints) moves
   it. *)
let service_sample ~big () =
  let cfg =
    if big then
      {
        Service.Front.smoke with
        Service.Front.sessions = 500;
        requests = 12;
        keys = 40_000;
        prefill = 10_000;
      }
    else
      {
        Service.Front.smoke with
        Service.Front.sessions = 100;
        requests = 6;
        keys = 8_000;
        prefill = 2_000;
      }
  in
  let r = Service.Front.run cfg in
  (r.Service.Front.r_completed, r.Service.Front.r_makespan_ns)

let benches_for ?(big = true) scale =
  [
    ( "fig8-map",
      sweep (map_point ~pipeline:false) scale Harness.Systems.map_kinds );
    ( "fig9-queue",
      sweep
        (fun s k ~threads -> Harness.Experiments.queue_point s k ~threads)
        scale Harness.Systems.queue_kinds );
    (* The same sweep restricted to ResPCT with pipelined checkpointing, so
       the pipelined runtime (volatile epoch views, overlap barrier, staged
       reclamation) is under the gate as well. *)
    ( "respct-pipe",
      sweep (map_point ~pipeline:true) scale [ Harness.Systems.Respct ] );
    ("kv-service", service_sample ~big);
  ]

(* Default preset: the fig8 and fig9 sweeps at the figures' own scale. *)
let default_preset =
  { p_name = "default"; p_benches = benches_for Harness.Experiments.small }

(* Smoke preset: the same sweeps on a drastically shrunk world, for CI
   and for the harness's own tests — seconds, not minutes. *)
let smoke_scale =
  {
    Harness.Experiments.small with
    Harness.Experiments.label = "smoke";
    sweep_threads = [ 2 ];
    duration_ns = 100_000.0;
    map_prefill = 400;
    buckets = 200;
    queue_prefill = 50;
    period_ns = 25_000.0;
  }

let smoke_preset =
  { p_name = "smoke"; p_benches = benches_for ~big:false smoke_scale }

(* Checkpoint-pause probe: the metric the pipelined runtime is built to
   move. One classic and one pipelined ResPCT map run at the preset's
   largest thread count; the pause is the mutator stall per checkpoint
   (the whole flush in classic mode, only quiescence + handoff in
   pipeline mode) and the overlap is the background-flush window that
   replaced the rest of it. *)
type pause = {
  pause_mode : string; (* "classic" | "pipeline" *)
  pause_stall_us : float; (* mutator stall per checkpoint *)
  pause_overlap_us : float; (* overlapped background flush per checkpoint *)
  pause_checkpoints : int;
}

let checkpoint_pause preset =
  let scale =
    if preset.p_name = "smoke" then smoke_scale else Harness.Experiments.small
  in
  let threads =
    List.fold_left max 1 scale.Harness.Experiments.sweep_threads
  in
  let run ~pipeline =
    let _, rt = map_point ~pipeline scale Harness.Systems.Respct ~threads in
    Option.bind rt (fun rt ->
        let s = Respct.Runtime.stats rt in
        let n = s.Respct.Runtime.checkpoints in
        if n = 0 then None
        else
          Some
            {
              pause_mode = (if pipeline then "pipeline" else "classic");
              pause_stall_us =
                s.Respct.Runtime.stall_ns /. float_of_int n /. 1e3;
              pause_overlap_us =
                s.Respct.Runtime.overlap_ns /. float_of_int n /. 1e3;
              pause_checkpoints = n;
            })
  in
  List.filter_map (fun pipeline -> run ~pipeline) [ false; true ]

let run ?only preset =
  List.filter_map
    (fun (name, f) ->
      if Option.fold ~none:true ~some:(String.equal name) only then
        let ops, sim_ns = f () in
        Some { Bench.name; ops; sim_ns }
      else None)
    preset.p_benches

let document preset bs = Bench.document ~preset:preset.p_name bs
