(* Orchestration of one benchmark invocation. Every execution of a
   workload runs in a fresh process — this executable re-run with the
   [execution] subcommand — one at a time, and reports back through a
   pipe. A fresh process rather than a fork: a forked child would count
   the parent's resident pages in its own VmHWM, so the peak would drift
   with whatever the parent had touched.

   The invocation makes one discarded warm-up execution, then measured
   executions until [seconds] of them have elapsed (at least three), and
   reports host timings as the median over them. With tracing on, it then
   makes one sampled and one counted execution for the per-layer
   numbers. *)

open Workloads

type stat = { value : float; lo : float; hi : float; runs : float list }

type result = {
  workload : string;
  seed : int;
  size : size;
  reps : rep list;  (** measured, untraced *)
  sampled : rep option;
  counted : rep option;
  errors : string list;
  elapsed_s : float;
}

let median xs = Perf.Stat.median (Array.of_list xs)

let stat_of runs =
  match runs with
  | [] -> { value = 0.0; lo = 0.0; hi = 0.0; runs }
  | _ ->
      {
        value = median runs;
        lo = List.fold_left Float.min infinity runs;
        hi = List.fold_left Float.max neg_infinity runs;
        runs;
      }

let exact v = { value = v; lo = v; hi = v; runs = [ v ] }

let string_of_size = function Full -> "full" | Smoke -> "smoke"

(* The [execution] subcommand: run one execution and write the marshalled
   outcome to standard output. *)
let execution (w : workload) ~size ~seed ~pass =
  let res =
    match w.run size ~seed ~pass with
    | r -> Ok { r with values = ("host_peak_rss_mb", peak_rss_mb ()) :: r.values }
    | exception e -> Error (Printexc.to_string e)
  in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout (res : (rep, string) Stdlib.result) [];
  flush stdout

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let spawn (w : workload) ~size ~seed ~pass : (rep, string) Stdlib.result =
  let args =
    [|
      Sys.executable_name; "execution"; "--workload"; w.name; "--seed";
      string_of_int seed; "--pass"; fst (List.find (fun (_, p) -> p = pass) passes);
    |]
  in
  let args = if size = Smoke then Array.append args [| "--smoke" |] else args in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let res =
    match (Marshal.from_channel ic : (rep, string) Stdlib.result) with
    | r -> r
    | exception (End_of_file | Failure _) -> Error "the benchmark execution died"
  in
  close_in ic;
  match waitpid pid with
  | Unix.WEXITED 0 -> res
  | Unix.WEXITED n -> Error (Printf.sprintf "execution exited with %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "execution killed by signal %d" n)

let value name (r : rep) = List.assoc_opt name r.values

(* Simulated values are a function of the seed: every execution — traced
   or not — must reproduce the first one's. *)
let determinism_errors ~seed (first : rep) others =
  List.concat_map
    (fun (r : rep) ->
      List.filter_map
        (fun (name, v) ->
          match value name r with
          | Some v' when Catalog.is_exact name && v' <> v ->
              Some
                (Printf.sprintf "%s differs between executions of seed %d: %.17g vs %.17g"
                   name seed v v')
          | _ -> None)
        first.values)
    others

let max_reps = 100

let run (w : workload) ~size ~seed ~seconds ~trace =
  let t_start = Unix.gettimeofday () in
  let errors = ref [] in
  let go pass =
    match spawn w ~size ~seed ~pass with
    | Ok r ->
        errors := !errors @ r.errors;
        Some r
    | Error msg ->
        errors := !errors @ [ msg ];
        None
  in
  let warmup, min_reps = match size with Full -> (1, 3) | Smoke -> (0, 2) in
  for _ = 1 to warmup do
    ignore (spawn w ~size ~seed ~pass:Plain)
  done;
  let t0 = Unix.gettimeofday () in
  let rec measure acc k =
    if k >= max_reps || (k >= min_reps && Unix.gettimeofday () -. t0 >= seconds)
    then List.rev acc
    else measure (Option.fold ~none:acc ~some:(fun r -> r :: acc) (go Plain)) (k + 1)
  in
  let reps = measure [] 0 in
  let sampled, counted =
    if trace then
      let s = go Sampled in
      (s, go Counted)
    else (None, None)
  in
  let det =
    match reps @ Option.to_list sampled @ Option.to_list counted with
    | first :: others -> determinism_errors ~seed first others
    | [] -> []
  in
  {
    workload = w.name;
    seed;
    size;
    reps;
    sampled;
    counted;
    errors = !errors @ det;
    elapsed_s = Unix.gettimeofday () -. t_start;
  }

(* ------------------------------------------------------------------ *)
(* Metrics *)

(* Host timings in reference-box seconds (see {!Probe}). *)
let host_ops_per_s (r : rep) =
  float_of_int r.ops /. Probe.phase_time Probe.Window r.slices

let setup_s (r : rep) = Probe.phase_time Probe.Setup r.slices /. float_of_int r.setups
let ops_rate res = stat_of (List.map host_ops_per_s res.reps)

let first_value res name =
  List.find_map (value name) (res.reps @ Option.to_list res.counted @ Option.to_list res.sampled)

let host_stat res name = stat_of (List.filter_map (value name) res.reps)

let end_to_end res =
  List.map
    (fun (m : Catalog.metric) ->
      let s =
        match m.Catalog.name with
        | "host_ops_per_s" -> ops_rate res
        | "setup_s" -> stat_of (List.map setup_s res.reps)
        | name when m.Catalog.exact ->
            exact (Option.value ~default:0.0 (first_value res name))
        | name -> host_stat res name
      in
      (m, s))
    Catalog.end_to_end

let trace_overhead res =
  let rate = (ops_rate res).value in
  match res.sampled with
  | Some r when rate > 0.0 -> host_ops_per_s r /. rate
  | _ -> 0.0

let per_layer res =
  let ops_rate = (ops_rate res).value in
  let shares = Option.bind res.sampled (fun r -> r.profile) in
  let self key =
    match shares with
    | None -> 0.0
    | Some p ->
        if String.contains key '/' then Sampler.share p p.Sampler.file_self key
        else Sampler.share p p.Sampler.layer_self key
  in
  let get name = Option.value ~default:0.0 (first_value res name) in
  let host_ns share per_op = if ops_rate = 0.0 || per_op = 0.0 then 0.0 else share *. 1e9 /. ops_rate /. per_op in
  let derived name =
    match name with
    | "trace_overhead" -> trace_overhead res
    | "trace_samples" ->
        Option.fold ~none:0.0 ~some:(fun p -> float_of_int p.Sampler.samples) shares
    | "simsched.scheduler.host_ns_per_op" ->
        host_ns (self "lib/simsched/scheduler.ml") 1.0
    | "simnvm.memsys.host_ns_per_access" ->
        host_ns (self "lib/simnvm/memsys.ml") (get "simnvm.accesses_per_op")
    | "ocaml.stdlib.self_share" -> self "stdlib"
    | _ -> (
        (* [<layer>.self_share] and [<layer>.<file>.self_share] *)
        match String.split_on_char '.' name with
        | [ layer; "self_share" ] -> self layer
        | [ layer; file; "self_share" ] -> self (Printf.sprintf "lib/%s/%s.ml" layer file)
        | _ -> get name)
  in
  List.map
    (fun (m : Catalog.metric) ->
      let name = m.Catalog.name in
      let s =
        if m.Catalog.exact then exact (get name)
        else
          match host_stat res name with
          | { runs = []; _ } -> exact (derived name)
          | s -> s
      in
      (m, s))
    Catalog.per_layer

let attempted res = List.fold_left (fun a (r : rep) -> a + r.attempted) 0 res.reps
let failed res = List.fold_left (fun a (r : rep) -> a + r.failed) 0 res.reps
let correct res = res.errors = [] && res.reps <> []

let metrics res ~trace = if trace then per_layer res else end_to_end res

let values_json metrics =
  Obs.Json.Obj
    (List.map
       (fun ((m : Catalog.metric), s) ->
         ( m.Catalog.name,
           Obs.Json.Obj
             [ ("value", Obs.Json.Float s.value); ("unit", Obs.Json.String m.Catalog.unit) ] ))
       metrics)

(* The last line of standard output. *)
let summary_json res ~trace =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool (correct res));
      ("attempted", Obs.Json.Int (max 1 (attempted res)));
      ("failed", Obs.Json.Int (failed res));
      ("metrics", values_json (metrics res ~trace));
    ]

let print_report res ~trace =
  Printf.printf "benchmark %s, seed %d, %s size: %d measured executions%s in %.1f s\n"
    res.workload res.seed (string_of_size res.size) (List.length res.reps)
    (if trace then " + sampled + counted" else "")
    res.elapsed_s;
  List.iter
    (fun ((m : Catalog.metric), s) ->
      if m.Catalog.exact || List.length s.runs < 2 then
        Printf.printf "  %-36s %14.6g %s\n" m.Catalog.name s.value m.Catalog.unit
      else
        Printf.printf "  %-36s %14.6g %s  (median; min %.6g, max %.6g)\n"
          m.Catalog.name s.value m.Catalog.unit s.lo s.hi)
    (metrics res ~trace);
  (match List.find_map (fun (r : rep) -> value "sim_op_samples" r) res.reps with
  | Some n when n > 0.0 -> Printf.printf "  (latency quantiles over %.0f operations)\n" n
  | _ -> ());
  let cpu phase (r : rep) =
    List.fold_left
      (fun a (s : Probe.slice) -> if s.Probe.phase = phase then a +. s.Probe.cpu else a)
      0.0 r.slices
  in
  if res.reps <> [] then
    Printf.printf
      "  (host time in reference-box seconds; raw CPU medians: %.6g ops/s, set-up %.6g s)\n"
      (median (List.map (fun (r : rep) -> float_of_int r.ops /. cpu Probe.Window r) res.reps))
      (median (List.map (fun (r : rep) -> cpu Probe.Setup r /. float_of_int r.setups) res.reps));
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) res.errors

(* ------------------------------------------------------------------ *)
(* Files *)

let stat_json (s : stat) =
  Obs.Json.Obj
    [
      ("median", Obs.Json.Float s.value);
      ("min", Obs.Json.Float s.lo);
      ("max", Obs.Json.Float s.hi);
      ("runs", Obs.Json.List (List.map (fun v -> Obs.Json.Float v) s.runs));
    ]

(* One invocation as recorded by [--out] (schema respct-benchmark-runs/v1);
   [compare] reads these. *)
let run_json res ~trace =
  Obs.Json.Obj
    [
      ("workload", Obs.Json.String res.workload);
      ("seed", Obs.Json.Int res.seed);
      ("size", Obs.Json.String (string_of_size res.size));
      ("correct", Obs.Json.Bool (correct res));
      ("errors", Obs.Json.List (List.map (fun e -> Obs.Json.String e) res.errors));
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun ((m : Catalog.metric), s) -> (m.Catalog.name, stat_json s))
             (end_to_end res @ if trace then per_layer res else [])) );
    ]

let runs_schema = "respct-benchmark-runs/v1"

let runs_of_file path =
  if not (Sys.file_exists path) then Ok []
  else
    match Obs.Json.of_file path with
    | Error e -> Error e
    | Ok doc -> (
        match Obs.Json.member "runs" doc with
        | Some (Obs.Json.List runs) -> Ok runs
        | _ -> Error (path ^ ": no \"runs\" list"))

let append_run path run =
  match runs_of_file path with
  | Error e -> Error e
  | Ok runs ->
      Obs.Json.to_file path
        (Obs.Json.Obj
           [ ("schema", Obs.Json.String runs_schema); ("runs", Obs.Json.List (runs @ [ run ])) ]);
      Ok ()

let trace_json res =
  let opt f = function None -> Obs.Json.Null | Some x -> f x in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "respct-benchmark-trace/v1");
      ("workload", Obs.Json.String res.workload);
      ("seed", Obs.Json.Int res.seed);
      ("size", Obs.Json.String (string_of_size res.size));
      ("untraced_host_ops_per_s", Obs.Json.Float (ops_rate res).value);
      ("trace_overhead", Obs.Json.Float (trace_overhead res));
      ("profile", opt Sampler.to_json (Option.bind res.sampled (fun r -> r.profile)));
      ("checkpoint_spans", opt Fun.id (Option.bind res.sampled (fun r -> r.spans)));
      ("per_layer", values_json (per_layer res));
    ]
