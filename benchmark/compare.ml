(* [compare PARENT CHANGE]: decide, per workload and end-to-end metric,
   whether a change gained, held or regressed against its parent. Both
   files hold invocations recorded with [run --out]; the i-th invocation
   of a workload in one file is paired with the i-th in the other (run
   them alternately, same seeds, same settings).

   - Simulated metrics must be identical for each paired seed.
   - A host metric gains only when the change wins at least 9 of 10 pairs
     (ties count for neither side) and the medians differ by more than the
     parent's interquartile range.
   - It regresses when the change's median is worse than the parent's by
     more than the metric's bound.
   - When the parent's own spread exceeds the bound, the metric is
     unresolved, unless every change run beats every parent run. *)

type verdict = Identical | Changed | Gain | Held | Regression | Unresolved

let string_of_verdict = function
  | Identical -> "identical"
  | Changed -> "CHANGED"
  | Gain -> "gain"
  | Held -> "no regression"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"

let failing = function Changed | Regression -> true | _ -> false

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default exclusive method). *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

type side = { seed : int; value : float }

let runs_by_workload runs =
  let name run =
    match Obs.Json.member "workload" run with
    | Some (Obs.Json.String w) -> Some w
    | _ -> None
  in
  List.sort_uniq compare (List.filter_map name runs)
  |> List.map (fun w -> (w, List.filter (fun run -> name run = Some w) runs))

let side name run =
  let seed =
    match Obs.Json.member "seed" run with Some (Obs.Json.Int s) -> s | _ -> -1
  in
  Option.bind (Obs.Json.member "metrics" run) (Obs.Json.member name)
  |> Fun.flip Option.bind (Obs.Json.member "median")
  |> Fun.flip Option.bind Obs.Json.to_float_opt
  |> Option.map (fun value -> { seed; value })

let better (m : Catalog.metric) a b =
  match m.Catalog.better with Catalog.Higher -> a > b | Catalog.Lower -> a < b

let paired ps cs =
  let n = min (List.length ps) (List.length cs) in
  let first xs = List.filteri (fun i _ -> i < n) xs in
  List.combine (first ps) (first cs)

let wins m pairs =
  List.length (List.filter (fun (p, c) -> better m c.value p.value) pairs)

let verdict (m : Catalog.metric) parent change =
  let pairs = paired parent change in
  if m.Catalog.exact then
    if List.for_all (fun (p, c) -> p.seed <> c.seed || p.value = c.value) pairs
    then Identical
    else Changed
  else
    let pv = List.map (fun s -> s.value) parent in
    let cv = List.map (fun s -> s.value) change in
    let q1, pmed, q3 = quartiles pv in
    let _, cmed, _ = quartiles cv in
    let iqr = q3 -. q1 in
    let bound = Option.value ~default:0.0 m.Catalog.bound in
    let dominates = List.for_all (fun c -> List.for_all (better m c) pv) cv in
    let worse_by =
      match m.Catalog.better with
      | Catalog.Higher -> (pmed -. cmed) /. pmed
      | Catalog.Lower -> (cmed -. pmed) /. pmed
    in
    if iqr /. pmed > bound && not dominates then Unresolved
    else if
      better m cmed pmed
      && float_of_int (wins m pairs) >= 0.9 *. float_of_int (List.length pairs)
      && Float.abs (cmed -. pmed) > iqr
    then Gain
    else if worse_by > bound then Regression
    else Held

let show xs =
  let q1, med, q3 = quartiles (List.map (fun s -> s.value) xs) in
  Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3

let row = Printf.printf "%-13s %-17s %5s %-32s %-32s %6s  %s\n"

let run ~parent ~change =
  match (Runner.runs_of_file parent, Runner.runs_of_file change) with
  | Error e, _ | _, Error e -> Error e
  | Ok p, Ok c ->
      let c = runs_by_workload c in
      row "workload" "metric" "pairs" "parent median [q1, q3]"
        "change median [q1, q3]" "wins" "verdict";
      let fails = ref 0 in
      List.iter
        (fun (w, pruns) ->
          match List.assoc_opt w c with
          | None -> Printf.printf "%-13s (no runs in %s)\n" w change
          | Some cruns ->
              List.iter
                (fun (m : Catalog.metric) ->
                  let ps = List.filter_map (side m.Catalog.name) pruns in
                  let cs = List.filter_map (side m.Catalog.name) cruns in
                  if ps <> [] && cs <> [] then begin
                    let v = verdict m ps cs in
                    if failing v then incr fails;
                    let pairs = paired ps cs in
                    row w m.Catalog.name
                      (string_of_int (List.length pairs))
                      (show ps) (show cs)
                      (Printf.sprintf "%d/%d" (wins m pairs) (List.length pairs))
                      (string_of_verdict v)
                  end)
                Catalog.end_to_end)
        (runs_by_workload p);
      Ok !fails
