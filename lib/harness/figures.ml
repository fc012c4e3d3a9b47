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
  jobs : setup -> (Obs.Run.point, table list * Obs.Json.t option) Obs.Jobs.t;
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

let update_pcts = [ 10; 50; 90 ]

let fig8 s =
  let scale = s.scale in
  Obs.Jobs.grid
    (List.concat_map
       (fun u -> List.map (fun kind -> (u, kind)) Systems.map_kinds)
       update_pcts)
    scale.Experiments.sweep_threads
    (fun (u, kind) threads ->
      Experiments.point scale kind (Experiments.Map u) ~threads)
    (fun rows ->
      ( List.map
          (fun update_pct ->
            {
              title =
                Printf.sprintf
                  "Figure 8: HashMap throughput (Mops/s), %d%% updates / %d%% \
                   searches"
                  update_pct (100 - update_pct);
              header = thread_header scale;
              rows =
                List.filter_map
                  (fun ((u, kind), pts) ->
                    if u = update_pct then
                      Some (Systems.name_of kind, mops_cells pts)
                    else None)
                  rows;
            })
          update_pcts,
        Some
          (Obs.Run.experiment "fig8" ~params:(scale_params scale)
             ~extra:
               [
                 throughput_series
                   (List.map
                      (fun ((u, kind), pts) ->
                        ( Printf.sprintf "%s/upd%d" (Systems.name_of kind) u,
                          pts ))
                      rows);
               ]
             (List.concat_map snd rows)) ))

let fig9 s =
  let scale = s.scale in
  Obs.Jobs.grid Systems.queue_kinds scale.Experiments.sweep_threads
    (fun kind threads ->
      Experiments.point scale kind Experiments.Queue ~threads)
    (fun rows ->
      let rows =
        List.map (fun (kind, pts) -> (Systems.name_of kind, pts)) rows
      in
      ( [
          {
            title = "Figure 9: Queue throughput (Mops/s), 1:1 enq/deq";
            header = thread_header scale;
            rows = List.map (fun (name, pts) -> (name, mops_cells pts)) rows;
          };
        ],
        Some
          (Obs.Run.experiment "fig9" ~params:(scale_params scale)
             ~extra:[ throughput_series rows ]
             (List.concat_map snd rows)) ))

let fig10 s =
  let scale = s.scale in
  let threads = scale.Experiments.fig10_threads in
  let workloads =
    [
      ("Queue", Experiments.Queue);
      ("HashMap-RI", Experiments.Map 10);
      ("HashMap-WI", Experiments.Map 90);
    ]
  in
  (* The first configuration, Transient<DRAM>, is the normalisation base. *)
  let configs =
    [
      ("Transient<DRAM>", Systems.Transient_dram, Respct.Runtime.Full);
      ("Transient<NVMM>", Systems.Transient_nvm, Respct.Runtime.Full);
      ("ResPCT-InCLL", Systems.Respct, Respct.Runtime.Incll_only);
      ("ResPCT-noFlush", Systems.Respct, Respct.Runtime.No_flush);
      ("ResPCT", Systems.Respct, Respct.Runtime.Full);
    ]
  in
  Obs.Jobs.grid configs workloads
    (fun (_, kind, mode) (_, w) ->
      let p =
        { (Experiments.params_for scale ~threads ~kind) with Systems.mode }
      in
      Experiments.point ~params:p scale kind w ~threads)
    (fun rows ->
      let base =
        match rows with
        | (_, pts) :: _ -> List.map Experiments.point_mops pts
        | [] -> []
      in
      ( [
          {
            title =
              Printf.sprintf
                "Figure 10: overhead analysis at %d threads (throughput \
                 normalised to Transient<DRAM>)"
                threads;
            header = "config:" :: List.map fst workloads;
            rows =
              List.map
                (fun ((cname, _, _), pts) ->
                  ( cname,
                    List.map2
                      (fun pt b ->
                        Table.fmt_ratio (Experiments.point_mops pt /. b))
                      pts base ))
                rows;
          };
        ],
        Some
          (Obs.Run.experiment "fig10" ~params:(scale_params scale)
             (List.concat_map
                (fun ((cname, _, _), pts) ->
                  List.map2
                    (fun (wname, _) pt ->
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
                    workloads pts)
                rows)) ))

let fig11 s =
  let scale = s.scale in
  let threads = scale.Experiments.fig10_threads in
  let periods = scale.Experiments.fig11_periods_ns in
  let wi = Experiments.Map 90 in
  let respct period_ns () =
    let p =
      {
        (Experiments.params_for scale ~threads ~kind:Systems.Respct) with
        Systems.period_ns;
      }
    in
    Experiments.point ~params:p scale Systems.Respct wi ~threads
  in
  {
    (* The Transient<DRAM> point first: the normalisation base. *)
    Obs.Jobs.jobs =
      Array.of_list
        ((fun () -> Experiments.point scale Systems.Transient_dram wi ~threads)
        :: List.map respct periods);
    close =
      (fun pts ->
        let base = pts.(0) in
        let base_mops = Experiments.point_mops base in
        let sweep = List.combine periods (List.tl (Array.to_list pts)) in
        ( [
            {
              title =
                "Figure 11: checkpoint-period sweep (HashMap write-intensive; \
                 normalised throughput and measured effective period)";
              header = [ "period"; "norm. throughput"; "effective period" ];
              rows =
                List.map
                  (fun (period_ns, pt) ->
                    let eff =
                      Experiments.point_extra_float pt "effective_period_ns"
                    in
                    ( Printf.sprintf "%.0f us" (period_ns /. 1e3),
                      [
                        Table.fmt_ratio
                          (Experiments.point_mops pt /. base_mops);
                        (if Float.is_nan eff then "-"
                         else Printf.sprintf "%.0f us" (eff /. 1e3));
                      ] ))
                  sweep;
            };
          ],
          Some
            (Obs.Run.experiment "fig11" ~params:(scale_params scale)
               ({ base with Obs.Run.label = "baseline/" ^ base.Obs.Run.label }
               :: List.map
                    (fun (period_ns, pt) ->
                      {
                        pt with
                        Obs.Run.params =
                          pt.Obs.Run.params
                          @ [ ("period_ns", Obs.Json.Float period_ns) ];
                      })
                    sweep)) ));
  }

(* A write-intensive ResPCT map of [buckets] run on 8 threads, crashed
   mid-epoch, then recovered by [recovery_threads] threads; the point's
   extras carry the recovery report. *)
let recovery_point (scale : Experiments.scale) buckets =
  let s = { scale with Experiments.buckets; map_prefill = buckets * 2 } in
  let threads = 8 in
  let p = Experiments.params_for s ~threads ~kind:Systems.Respct in
  let sched, env, _rt, build = Systems.map_system p Systems.Respct in
  let wl =
    {
      Workload.nthreads = threads;
      duration_ns = infinity (* run until the crash *);
      key_space = 2 * s.Experiments.buckets;
      update_pct = 90;
      prefill = s.Experiments.map_prefill;
      seed = p.Systems.seed;
    }
  in
  (* Crash roughly 1.5 periods after the prefill finishes: prefill time
     is unknown in advance, so crash far enough to cover prefill + one
     checkpoint for all sizes. *)
  let crash_at =
    (float_of_int s.Experiments.map_prefill *. 400.0)
    +. (2.5 *. p.Systems.period_ns)
  in
  Simsched.Scheduler.set_crash_at sched crash_at;
  (try ignore (Workload.run_map ~sched ~params:wl ~build ())
   with Failure _ -> ());
  let mem = Simsched.Env.mem env in
  Simnvm.Memsys.crash mem;
  let layout =
    Respct.Layout.v
      ~line_words:(Simnvm.Memsys.config mem).Simnvm.Memsys.line_words
      ~nvm_words:p.Systems.nvm_words ~max_threads:p.Systems.max_threads
      ~registry_per_slot:p.Systems.registry_per_slot ()
  in
  let spans = Obs.Span.create () in
  let rthreads = scale.Experiments.recovery_threads in
  let rep = Respct.Recovery.run ~threads:rthreads ~layout ~spans mem in
  Obs.Run.point
    ~params:
      [
        ("buckets", Obs.Json.Int buckets);
        ("recovery_threads", Obs.Json.Int rthreads);
      ]
    ~spans
    ~extra:
      [
        ("duration_ns", Obs.Json.Float rep.Respct.Recovery.duration_ns);
        ("scanned", Obs.Json.Int rep.Respct.Recovery.scanned);
        ( "rolled_back",
          Obs.Json.Int (List.length rep.Respct.Recovery.rolled_back) );
        ("failed_epoch", Obs.Json.Int rep.Respct.Recovery.failed_epoch);
      ]
    (string_of_int buckets)

let fig12 s =
  let scale = s.scale in
  Obs.Jobs.grid scale.Experiments.fig12_buckets [ () ]
    (fun buckets () -> recovery_point scale buckets)
    (fun rows ->
      let pts = List.concat_map snd rows in
      ( [
          {
            title =
              Printf.sprintf
                "Figure 12: recovery time vs HashMap size (%d recovery \
                 threads)"
                scale.Experiments.recovery_threads;
            header =
              [ "buckets"; "recovery (ms)"; "registry entries"; "rolled back" ];
            rows =
              List.map
                (fun pt ->
                  ( pt.Obs.Run.label,
                    [
                      Table.fmt_ms
                        (Experiments.point_extra_float pt "duration_ns");
                      string_of_int (Experiments.point_extra_int pt "scanned");
                      string_of_int
                        (Experiments.point_extra_int pt "rolled_back");
                    ] ))
                pts;
          };
        ],
        Some (Obs.Run.experiment "fig12" ~params:(scale_params scale) pts) ))

(* One job per application run; its point carries the run's virtual
   makespan. *)
let fig13 s =
  let module A = App_experiments in
  (* Figure 13's columns: Dedup, Swaptions, MatMul, LR *)
  let apps = [ `Dedup; `Swaptions false; `Matmul; `Linreg false ] in
  let variants = [ A.App_dram; A.App_nvm; A.App_respct ] in
  (* section 5.3 ablation: the naive RP placement, where it exists *)
  let naive = function
    | `Swaptions _ -> Some (`Swaptions true)
    | `Linreg _ -> Some (`Linreg true)
    | `Matmul | `Dedup -> None
  in
  let runs =
    List.concat_map (fun v -> List.map (fun app -> (v, app)) apps) variants
    @ List.filter_map
        (fun app -> Option.map (fun n -> (A.App_respct, n)) (naive app))
        apps
  in
  {
    Obs.Jobs.jobs =
      Array.of_list
        (List.map
           (fun (v, app) () ->
             Obs.Run.point
               ~extra:
                 [ ("elapsed_ns", Obs.Json.Float (A.run_app s.apps v app)) ]
               (A.variant_name v))
           runs);
    close =
      (fun pts ->
        let times = List.combine runs (Array.to_list pts) in
        let time v app =
          Experiments.point_extra_float (List.assoc (v, app) times) "elapsed_ns"
        in
        let base = List.map (time A.App_dram) apps in
        let row name cell = (name, List.map2 cell apps base) in
        ( [
            {
              title =
                "Figure 13: compute-intensive applications (execution time \
                 normalised to Transient<DRAM>; last row = section 5.3's \
                 naive RP placement)";
              header = [ "config:"; "Dedup"; "Swaptions"; "MatMul"; "LR" ];
              rows =
                List.map
                  (fun v ->
                    row (A.variant_name v) (fun app b ->
                        Table.fmt_ratio (time v app /. b)))
                  variants
                @ [
                    row "ResPCT (naive RPs)" (fun app b ->
                        match naive app with
                        | Some n -> Table.fmt_ratio (time A.App_respct n /. b)
                        | None -> "-");
                  ];
            };
          ],
          None ));
  }

let fig14 s =
  let module A = App_experiments in
  Obs.Jobs.grid
    [ A.App_dram; A.App_nvm; A.App_respct ]
    [ Apps.Ycsb.read_intensive; Apps.Ycsb.balanced; Apps.Ycsb.write_intensive ]
    (fun v mix ->
      let dur, ops = A.run_kv s.apps v mix in
      Obs.Run.point
        ~extra:
          [
            ("total_ops", Obs.Json.Int ops); ("elapsed_ns", Obs.Json.Float dur);
          ]
        (A.variant_name v))
    (fun rows ->
      ( [
          {
            title = "Figure 14: KV store under YCSB (Kops/s)";
            header =
              [ "config:"; "read-intensive"; "balanced"; "write-intensive" ];
            rows =
              List.map
                (fun (v, pts) ->
                  ( A.variant_name v,
                    List.map
                      (fun pt ->
                        Printf.sprintf "%.0f"
                          (float_of_int
                             (Experiments.point_extra_int pt "total_ops")
                          /. Experiments.point_extra_float pt "elapsed_ns"
                          *. 1e6))
                      pts ))
                rows;
          };
        ],
        None ))

(* The tables measure nothing: no jobs, and the closing step builds
   the table. *)
let table_only table s =
  { Obs.Jobs.jobs = [||]; close = (fun _ -> ([ table s ], None)) }

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
  {
    title = "Table 2: RAW/WAR dependencies and idempotence (analysis demo)";
    header = [ "sequence"; "x"; "y"; "verdict" ];
    rows =
      [
        show "x=5; y=x (RAW)" Analysis.Idempotence.table2_raw;
        show "y=x; x=8 (WAR)" Analysis.Idempotence.table2_war;
      ];
  }

let tab3 s =
  let rows = Loc_report.rows ~root:s.root () in
  {
    title =
      (if rows = [] then
         "Table 3: sources not found (run from the repository root to count \
          instrumentation lines)"
       else "Table 3: ResPCT instrumentation lines in the ported applications");
    header = [ "application"; "instrumented LoC"; "total LoC"; "%" ];
    rows;
  }

let all =
  [
    { name = "fig8"; jobs = fig8 };
    { name = "fig9"; jobs = fig9 };
    { name = "fig10"; jobs = fig10 };
    { name = "fig11"; jobs = fig11 };
    { name = "fig12"; jobs = fig12 };
    { name = "fig13"; jobs = fig13 };
    { name = "fig14"; jobs = fig14 };
    { name = "tab2"; jobs = table_only tab2 };
    { name = "tab3"; jobs = table_only tab3 };
  ]

(* ------------------------------------------------------------------ *)
(* Integrity tax *)

let integrity ?threads (scale : Experiments.scale) =
  let sweep =
    match threads with Some t -> [ t ] | None -> scale.Experiments.sweep_threads
  in
  let kind = Systems.Respct in
  let workloads =
    [ ("Queue", Experiments.Queue); ("HashMap", Experiments.Map 50) ]
  in
  (* per workload and thread count, the raw point then the sealed one *)
  let cols = List.concat_map (fun t -> [ (t, false); (t, true) ]) sweep in
  let rec pairs = function
    | off :: on :: rest -> (off, on) :: pairs rest
    | _ -> []
  in
  Obs.Jobs.grid workloads cols
    (fun (_, w) (threads, integrity) ->
      (* The integrity layout additionally reserves one regsum word per
         registry entry; give *both* arms the doubled NVMM so the geometry
         (and hence the cache behaviour) stays identical across the
         pair. *)
      let p = Experiments.params_for scale ~threads ~kind in
      let p =
        { p with Systems.nvm_words = 2 * p.Systems.nvm_words; integrity }
      in
      Experiments.point ~params:p scale kind w ~threads)
    (fun rows ->
      let rows = List.map (fun ((wname, _), pts) -> (wname, pairs pts)) rows in
      let cell (off, on) =
        let raw = Experiments.point_mops off
        and sealed = Experiments.point_mops on in
        Printf.sprintf "%s/%s (%+.1f%%)" (Table.fmt_mops sealed)
          (Table.fmt_mops raw)
          (100.0 *. ((sealed -. raw) /. raw))
      in
      let arm name f =
        Obs.Run.experiment name
          (List.concat_map (fun (_, cells) -> List.map f cells) rows)
      in
      ( {
          title = "Integrity tax (ResPCT sealed/raw Mops, delta)";
          header = "threads:" :: List.map string_of_int sweep;
          rows =
            List.map (fun (wname, cells) -> (wname, List.map cell cells)) rows;
        },
        [ arm "integrity-off" fst; arm "integrity-on" snd ] ))
