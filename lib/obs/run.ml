type point = {
  label : string;
  params : (string * Json.t) list;
  throughput_mops : float option;
  series : (string * float list) list;
  stats : Simnvm.Stats.t option;
  metrics : Metrics.t option;
  spans : Span.t option;
  extra : (string * Json.t) list;
}

let point ?(params = []) ?throughput_mops ?(series = []) ?stats ?metrics
    ?spans ?(extra = []) label =
  { label; params; throughput_mops; series; stats; metrics; spans; extra }

let stats_json (s : Simnvm.Stats.t) =
  Json.Obj
    [
      ("loads", Json.Int s.Simnvm.Stats.loads);
      ("stores", Json.Int s.Simnvm.Stats.stores);
      ("hits", Json.Int s.Simnvm.Stats.hits);
      ("dram_misses", Json.Int s.Simnvm.Stats.dram_misses);
      ("nvm_misses", Json.Int s.Simnvm.Stats.nvm_misses);
      ("dram_writebacks", Json.Int s.Simnvm.Stats.dram_writebacks);
      ("nvm_writebacks", Json.Int s.Simnvm.Stats.nvm_writebacks);
      ("pwbs", Json.Int s.Simnvm.Stats.pwbs);
      ("psyncs", Json.Int s.Simnvm.Stats.psyncs);
      ("spontaneous_evictions", Json.Int s.Simnvm.Stats.spontaneous_evictions);
      ("crashes", Json.Int s.Simnvm.Stats.crashes);
    ]

let point_json p =
  let fields = ref [] in
  let add k v = fields := (k, v) :: !fields in
  add "label" (Json.String p.label);
  if p.params <> [] then add "params" (Json.Obj p.params);
  (match p.throughput_mops with
  | Some x -> add "throughput_mops" (Json.Float x)
  | None -> ());
  if p.series <> [] then
    add "series"
      (Json.Obj
         (List.map
            (fun (k, xs) -> (k, Json.List (List.map (fun x -> Json.Float x) xs)))
            p.series));
  (match p.stats with Some s -> add "mem_stats" (stats_json s) | None -> ());
  (match p.metrics with Some m -> add "metrics" (Metrics.to_json m) | None -> ());
  (match p.spans with Some s -> add "spans" (Span.to_json s) | None -> ());
  List.iter (fun (k, v) -> add k v) p.extra;
  Json.Obj (List.rev !fields)

let experiment ?(params = []) ?(extra = []) name points =
  Json.Obj
    (List.concat
       [
         [ ("experiment", Json.String name) ];
         (if params = [] then [] else [ ("params", Json.Obj params) ]);
         extra;
         [ ("points", Json.List (List.map point_json points)) ];
       ])

let document ?(meta = []) experiments =
  Json.Obj
    (List.concat
       [
         [ ("schema", Json.String "respct-sim/results/v1") ];
         meta;
         [ ("experiments", Json.List experiments) ];
       ])
