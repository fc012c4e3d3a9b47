type table = {
  title : string;
  header : string list;
  rows : (string * string list) list;
}

type setup = {
  scale : Experiments.scale;
  apps : App_experiments.app_scale;
  root : string;
}

let setup (scale : Experiments.scale) =
  let apps =
    if scale.Experiments.label = "paper" then App_experiments.paper
    else App_experiments.small
  in
  { scale; apps; root = "." }

type figure = {
  name : string;
  run : setup -> table list * Obs.Json.t option;
}

let print t = Table.print ~title:t.title ~header:t.header t.rows

let scale_params (s : Experiments.scale) =
  [
    ("scale", Obs.Json.String s.Experiments.label);
    ( "sweep_threads",
      Obs.Json.List
        (List.map (fun t -> Obs.Json.Int t) s.Experiments.sweep_threads) );
  ]

let mops_cells pts =
  List.map (fun pt -> Table.fmt_mops (Experiments.point_mops pt)) pts

let thread_header (s : Experiments.scale) =
  "threads:" :: List.map string_of_int s.Experiments.sweep_threads

(* One throughput series per row, indexed by the thread sweep: a summary of
   what the per-point objects carry in full. *)
let throughput_series rows =
  ( "throughput_series_mops",
    Obs.Json.Obj
      (List.map
         (fun (name, pts) ->
           ( name,
             Obs.Json.List
               (List.map
                  (fun pt -> Obs.Json.Float (Experiments.point_mops pt))
                  pts) ))
         rows) )

(* ------------------------------------------------------------------ *)

let fig8 s =
  let groups = Experiments.fig8_points s.scale in
  ( List.map
      (fun (update_pct, rows) ->
        {
          title =
            Printf.sprintf
              "Figure 8: HashMap throughput (Mops/s), %d%% updates / %d%% \
               searches"
              update_pct (100 - update_pct);
          header = thread_header s.scale;
          rows = List.map (fun (name, pts) -> (name, mops_cells pts)) rows;
        })
      groups,
    Some
      (Obs.Run.experiment "fig8" ~params:(scale_params s.scale)
         ~extra:
           [
             throughput_series
               (List.concat_map
                  (fun (update_pct, rows) ->
                    List.map
                      (fun (name, pts) ->
                        (Printf.sprintf "%s/upd%d" name update_pct, pts))
                      rows)
                  groups);
           ]
         (List.concat_map (fun (_, rows) -> List.concat_map snd rows) groups))
  )

let fig9 s =
  let rows = Experiments.fig9_points s.scale in
  ( [
      {
        title = "Figure 9: Queue throughput (Mops/s), 1:1 enq/deq";
        header = thread_header s.scale;
        rows = List.map (fun (name, pts) -> (name, mops_cells pts)) rows;
      };
    ],
    Some
      (Obs.Run.experiment "fig9" ~params:(scale_params s.scale)
         ~extra:[ throughput_series rows ]
         (List.concat_map snd rows)) )

let fig10 s =
  let rows = Experiments.fig10_points s.scale in
  (* The first configuration, Transient<DRAM>, is the normalisation base. *)
  let base =
    match rows with
    | (_, cells) :: _ ->
        List.map (fun (w, pt) -> (w, Experiments.point_mops pt)) cells
    | [] -> []
  in
  ( [
      {
        title =
          Printf.sprintf
            "Figure 10: overhead analysis at %d threads (throughput \
             normalised to Transient<DRAM>)"
            s.scale.Experiments.fig10_threads;
        header = [ "config:"; "Queue"; "HashMap-RI"; "HashMap-WI" ];
        rows =
          List.map
            (fun (cname, cells) ->
              ( cname,
                List.map
                  (fun (wname, pt) ->
                    Table.fmt_ratio
                      (Experiments.point_mops pt /. List.assoc wname base))
                  cells ))
            rows;
      };
    ],
    Some
      (Obs.Run.experiment "fig10" ~params:(scale_params s.scale)
         (List.concat_map
            (fun (cname, cells) ->
              List.map
                (fun (wname, pt) ->
                  {
                    pt with
                    Obs.Run.label = Printf.sprintf "%s/%s" cname wname;
                    params =
                      pt.Obs.Run.params
                      @ [
                          ("config", Obs.Json.String cname);
                          ("workload", Obs.Json.String wname);
                        ];
                  })
                cells)
            rows)) )

let fig11 s =
  let base, sweep = Experiments.fig11_points s.scale in
  let base_mops = Experiments.point_mops base in
  ( [
      {
        title =
          "Figure 11: checkpoint-period sweep (HashMap write-intensive; \
           normalised throughput and measured effective period)";
        header = [ "period"; "norm. throughput"; "effective period" ];
        rows =
          List.map
            (fun (period_ns, pt) ->
              let eff = Experiments.point_eff pt in
              ( Printf.sprintf "%.0f us" (period_ns /. 1e3),
                [
                  Table.fmt_ratio (Experiments.point_mops pt /. base_mops);
                  (if Float.is_nan eff then "-"
                   else Printf.sprintf "%.0f us" (eff /. 1e3));
                ] ))
            sweep;
      };
    ],
    Some
      (Obs.Run.experiment "fig11" ~params:(scale_params s.scale)
         ({ base with Obs.Run.label = "baseline/" ^ base.Obs.Run.label }
         :: List.map
              (fun (period_ns, pt) ->
                {
                  pt with
                  Obs.Run.params =
                    pt.Obs.Run.params
                    @ [ ("period_ns", Obs.Json.Float period_ns) ];
                })
              sweep)) )

let fig12_rows pts =
  List.map
    (fun pt ->
      ( pt.Obs.Run.label,
        [
          Table.fmt_ms (Experiments.point_extra_float pt "duration_ns");
          string_of_int (Experiments.point_extra_int pt "scanned");
          string_of_int (Experiments.point_extra_int pt "rolled_back");
        ] ))
    pts

let fig12 s =
  let pts = Experiments.fig12_points s.scale in
  ( [
      {
        title =
          Printf.sprintf
            "Figure 12: recovery time vs HashMap size (%d recovery threads)"
            s.scale.Experiments.recovery_threads;
        header =
          [ "buckets"; "recovery (ms)"; "registry entries"; "rolled back" ];
        rows = fig12_rows pts;
      };
    ],
    Some (Obs.Run.experiment "fig12" ~params:(scale_params s.scale) pts) )

let fig13 s =
  ( [
      {
        title =
          "Figure 13: compute-intensive applications (execution time \
           normalised to Transient<DRAM>; last row = section 5.3's naive RP \
           placement)";
        header = [ "config:"; "Dedup"; "Swaptions"; "MatMul"; "LR" ];
        rows = App_experiments.fig13 s.apps;
      };
    ],
    None )

let fig14 s =
  ( [
      {
        title = "Figure 14: KV store under YCSB (Kops/s)";
        header = [ "config:"; "read-intensive"; "balanced"; "write-intensive" ];
        rows = App_experiments.fig14 s.apps;
      };
    ],
    None )

let tab2 _ =
  let show name trace =
    ( name,
      List.map
        (fun v ->
          Fmt.str "%a" Analysis.Idempotence.pp_classification
            (Analysis.Idempotence.classify trace v))
        [ "x"; "y" ]
      @ [
          (if Analysis.Idempotence.idempotent trace then "idempotent"
           else "not idempotent");
        ] )
  in
  ( [
      {
        title = "Table 2: RAW/WAR dependencies and idempotence (analysis demo)";
        header = [ "sequence"; "x"; "y"; "verdict" ];
        rows =
          [
            show "x=5; y=x (RAW)" Analysis.Idempotence.table2_raw;
            show "y=x; x=8 (WAR)" Analysis.Idempotence.table2_war;
          ];
      };
    ],
    None )

let tab3 s =
  let rows = Loc_report.rows ~root:s.root () in
  ( [
      {
        title =
          (if rows = [] then
             "Table 3: sources not found (run from the repository root to \
              count instrumentation lines)"
           else "Table 3: ResPCT instrumentation lines in the ported applications");
        header = [ "application"; "instrumented LoC"; "total LoC"; "%" ];
        rows;
      };
    ],
    None )

let all =
  [
    { name = "fig8"; run = fig8 };
    { name = "fig9"; run = fig9 };
    { name = "fig10"; run = fig10 };
    { name = "fig11"; run = fig11 };
    { name = "fig12"; run = fig12 };
    { name = "fig13"; run = fig13 };
    { name = "fig14"; run = fig14 };
    { name = "tab2"; run = tab2 };
    { name = "tab3"; run = tab3 };
  ]
