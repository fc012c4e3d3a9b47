(* One benchmark's result and the respct-sim/bench/v2 document.

   A benchmark runs its workload once and reports how many simulated
   operations completed and how much virtual time they covered. Both are
   pure functions of the cost model and the seeds, so the document holds
   no host-time field: two same-seed runs export identical bytes, and a
   committed document is an exact record of the cost model. How fast the
   host runs the simulator is measured by benchmark/, paired against the
   parent commit. *)

type t = { name : string; ops : int; sim_ns : float }

let schema = "respct-sim/bench/v2"

(* Million simulated ops per virtual second. *)
let sim_mops b = float_of_int b.ops /. Float.max 1.0 b.sim_ns *. 1e3

let document ~preset bs =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String schema);
      ("preset", Obs.Json.String preset);
      ( "benchmarks",
        Obs.Json.List
          (List.map
             (fun b ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.String b.name);
                   ("ops", Obs.Json.Int b.ops);
                   ("sim_ns", Obs.Json.Float b.sim_ns);
                   ("sim_mops", Obs.Json.Float (sim_mops b));
                 ])
             bs) );
    ]

let of_document doc =
  let entry e =
    match
      ( Obs.Json.member "name" e,
        Obs.Json.member "ops" e,
        Option.bind (Obs.Json.member "sim_ns" e) Obs.Json.to_float_opt )
    with
    | Some (Obs.Json.String name), Some (Obs.Json.Int ops), Some sim_ns ->
        Ok { name; ops; sim_ns }
    | _ -> Error "a benchmark entry lacks name, ops or sim_ns"
  in
  match (Obs.Json.member "schema" doc, Obs.Json.member "benchmarks" doc) with
  | Some (Obs.Json.String s), Some (Obs.Json.List entries) when s = schema ->
      List.fold_right
        (fun e acc ->
          Result.bind acc (fun bs -> Result.map (fun b -> b :: bs) (entry e)))
        entries (Ok [])
  | Some (Obs.Json.String s), _ when s <> schema ->
      Error (Printf.sprintf "schema %S, not %s" s schema)
  | _ -> Error ("not a " ^ schema ^ " document")
