type preset = {
  p_name : string;
  scale : Harness.Experiments.scale;
  big : bool;  (* the full-size KV-service sample *)
}

(* The sharded KV service front-end (lib/service): sessions, admission,
   batching and consistent-hash routing over per-shard runtimes, on the
   Sim backend. The sample is whole-service: completed requests over the
   run's virtual makespan, so a regression anywhere in the serving path
   (router, queues, batcher, shard runtimes, rolling checkpoints) moves
   it. *)
let service_point ~big () =
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
  Obs.Run.point
    ~extra:
      [
        ("total_ops", Obs.Json.Int r.Service.Front.r_completed);
        ("elapsed_ns", Obs.Json.Float r.Service.Front.r_makespan_ns);
      ]
    "kv-service"

(* Every benchmark of the preset: its name and one job per point. A
   sweep runs every kind × thread count, map points at 50% updates, with
   ResPCT's pipelined checkpointing (async epoch advance, double-buffered
   commits) on or off. *)
let benches preset =
  let scale = preset.scale in
  let sweep ?(pipeline = false) w kinds =
    List.concat_map
      (fun kind ->
        List.map
          (fun threads () ->
            let params =
              {
                (Harness.Experiments.params_for scale ~threads ~kind) with
                Harness.Systems.pipeline;
              }
            in
            Harness.Experiments.point ~params scale kind w ~threads)
          scale.Harness.Experiments.sweep_threads)
      kinds
  in
  [
    ("fig8-map", sweep (Harness.Experiments.Map 50) Harness.Systems.map_kinds);
    ("fig9-queue", sweep Harness.Experiments.Queue Harness.Systems.queue_kinds);
    (* The fig8 sweep restricted to ResPCT with pipelined checkpointing, so
       the pipelined runtime (volatile epoch views, overlap barrier, staged
       reclamation) is under the gate as well. *)
    ( "respct-pipe",
      sweep ~pipeline:true (Harness.Experiments.Map 50)
        [ Harness.Systems.Respct ] );
    ("kv-service", [ service_point ~big:preset.big ]);
  ]

(* Default preset: the fig8 and fig9 sweeps at the figures' own scale. *)
let default_preset =
  { p_name = "default"; scale = Harness.Experiments.small; big = true }

(* Smoke preset: the same sweeps on a drastically shrunk world, for CI
   and for the harness's own tests — seconds, not minutes. *)
let smoke_preset =
  {
    p_name = "smoke";
    scale =
      {
        Harness.Experiments.small with
        Harness.Experiments.label = "smoke";
        sweep_threads = [ 2 ];
        duration_ns = 100_000.0;
        map_prefill = 400;
        buckets = 200;
        queue_prefill = 50;
        period_ns = 25_000.0;
      };
    big = false;
  }

type pause = {
  pause_mode : string; (* "classic" | "pipeline" *)
  pause_stall_us : float; (* mutator stall per checkpoint *)
  pause_overlap_us : float; (* overlapped background flush per checkpoint *)
  pause_checkpoints : int;
}

(* The pause row of a ResPCT point, or none when it took no checkpoint. *)
let pause_of mode pt =
  let n = Harness.Experiments.point_extra_int pt "checkpoints" in
  if n = 0 then None
  else
    let per key =
      Harness.Experiments.point_extra_float pt key /. float_of_int n /. 1e3
    in
    Some
      {
        pause_mode = mode;
        pause_stall_us = per "stall_ns";
        pause_overlap_us = per "overlap_ns";
        pause_checkpoints = n;
      }

let jobs ?only preset =
  let selected =
    List.filter
      (fun (name, _) -> Option.fold ~none:true ~some:(String.equal name) only)
      (benches preset)
  in
  let close pts =
    let _, groups =
      List.fold_left_map
        (fun i (name, jobs) ->
          let n = List.length jobs in
          (i + n, (name, Array.to_list (Array.sub pts i n))))
        0 selected
    in
    (* summed in job order: kind-major, then thread count *)
    let bench (name, pts) =
      {
        Bench.name;
        ops =
          List.fold_left
            (fun n pt -> n + Harness.Experiments.point_extra_int pt "total_ops")
            0 pts;
        sim_ns =
          List.fold_left
            (fun t pt ->
              t +. Harness.Experiments.point_extra_float pt "elapsed_ns")
            0.0 pts;
      }
    in
    let threads =
      List.fold_left max 1 preset.scale.Harness.Experiments.sweep_threads
    in
    let respct = Harness.Systems.name_of Harness.Systems.Respct in
    let pause mode name =
      Option.bind (List.assoc_opt name groups) (fun pts ->
          Option.bind
            (List.find_opt
               (fun pt ->
                 pt.Obs.Run.label = respct
                 && List.assoc_opt "threads" pt.Obs.Run.params
                    = Some (Obs.Json.Int threads))
               pts)
            (pause_of mode))
    in
    ( List.map bench groups,
      List.filter_map Fun.id
        [ pause "classic" "fig8-map"; pause "pipeline" "respct-pipe" ] )
  in
  { Obs.Jobs.jobs = Array.of_list (List.concat_map snd selected); close }

let document preset bs = Bench.document ~preset:preset.p_name bs
