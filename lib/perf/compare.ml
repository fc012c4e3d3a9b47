(* The sim gate: a fresh benchmark document against a committed baseline,
   both respct-sim/bench/v2.

   Simulated ops and virtual time are deterministic, so any difference
   means the cost model or a workload changed, in either direction: a
   2x faster simulation is as much a change as a 2x slower one. Values
   are compared as the document prints them (floats at %.12g), so a
   baseline written by one run and read back by the next passes. *)

type verdict = {
  v_baseline : Bench.t;
  v_current : Bench.t;
  v_ratio : float; (* current / baseline sim_mops *)
  v_ok : bool;
}

type report = { verdicts : verdict list; errors : string list }

let ok r = r.errors = [] && List.for_all (fun v -> v.v_ok) r.verdicts

let printed f = Obs.Json.to_string (Obs.Json.Float f)

(* A float as a document stores it: printed, then read back. *)
let stored f =
  Option.bind (Result.to_option (Obs.Json.of_string (printed f)))
    Obs.Json.to_float_opt

let verdict (b : Bench.t) (c : Bench.t) =
  {
    v_baseline = b;
    v_current = c;
    v_ratio = Bench.sim_mops c /. Bench.sim_mops b;
    v_ok =
      b.Bench.ops = c.Bench.ops
      && stored b.Bench.sim_ns = stored c.Bench.sim_ns;
  }

(* Every benchmark in the baseline must be in the current document;
   benchmarks only in the current document are new and pass. *)
let compare ~baseline ~current =
  match (Bench.of_document baseline, Bench.of_document current) with
  | Error e, _ -> { verdicts = []; errors = [ "baseline: " ^ e ] }
  | _, Error e -> { verdicts = []; errors = [ "current run: " ^ e ] }
  | Ok base, Ok cur ->
      List.fold_right
        (fun b r ->
          let name = b.Bench.name in
          match List.find_opt (fun c -> c.Bench.name = name) cur with
          | Some c -> { r with verdicts = verdict b c :: r.verdicts }
          | None ->
              let e =
                Printf.sprintf "benchmark %S missing from current run" name
              in
              { r with errors = e :: r.errors })
        base { verdicts = []; errors = [] }

let print_report ppf r =
  List.iter (fun e -> Format.fprintf ppf "error: %s@." e) r.errors;
  List.iter
    (fun { v_baseline = b; v_current = c; v_ratio; v_ok } ->
      Format.fprintf ppf "%-12s ops %d -> %d  sim_ns %s -> %s  ratio %.3f  %s@."
        b.Bench.name b.Bench.ops c.Bench.ops (printed b.Bench.sim_ns)
        (printed c.Bench.sim_ns) v_ratio
        (if v_ok then "identical" else "CHANGED"))
    r.verdicts;
  Format.fprintf ppf "perf compare: %s@." (if ok r then "PASS" else "FAIL")
