(* Tests of the obs library: JSON printing, metric registry, span
   aggregation, and the Memobs probe riding the Memsys event pipeline. *)

let test_json_printer () =
  let open Obs.Json in
  Alcotest.(check string)
    "scalars and containers"
    {|{"a":1,"b":2.5,"c":"x\"y","d":[true,null],"e":{}}|}
    (to_string
       (Obj
          [
            ("a", Int 1);
            ("b", Float 2.5);
            ("c", String "x\"y");
            ("d", List [ Bool true; Null ]);
            ("e", Obj []);
          ]));
  Alcotest.(check string) "integral float" {|3.0|} (to_string (Float 3.0));
  Alcotest.(check string) "nan degrades to null" {|null|} (to_string (Float nan));
  Alcotest.(check string)
    "control chars escaped" {|"a\nb\u0001"|}
    (to_string (String "a\nb\001"))

let test_json_deterministic () =
  (* Field order is construction order, so the same value prints to the
     same bytes — the property the determinism regression rests on. *)
  let v () =
    Obs.Json.Obj
      [ ("z", Obs.Json.Int 1); ("a", Obs.Json.Float 0.1); ("m", Obs.Json.Null) ]
  in
  Alcotest.(check string)
    "same value, same bytes"
    (Obs.Json.to_string (v ()))
    (Obs.Json.to_string (v ()))

let test_metrics_registry () =
  let r = Obs.Metrics.create () in
  let a = Obs.Metrics.counter r "a" in
  let b = Obs.Metrics.counter r "b" in
  Obs.Metrics.incr a;
  Obs.Metrics.add b 41;
  Obs.Metrics.incr b;
  Alcotest.(check int) "a" 1 (Obs.Metrics.value a);
  Alcotest.(check int) "b" 42 (Obs.Metrics.value b);
  (* get-or-create returns the same counter *)
  Obs.Metrics.incr (Obs.Metrics.counter r "a");
  Alcotest.(check int) "a again" 2 (Obs.Metrics.value a);
  (match Obs.Metrics.to_json r with
  | Obs.Json.Obj [ ("a", Obs.Json.Int 2); ("b", Obs.Json.Int 42) ] -> ()
  | j -> Alcotest.failf "unexpected registry json: %s" (Obs.Json.to_string j));
  Obs.Metrics.reset r;
  Alcotest.(check int) "reset" 0 (Obs.Metrics.value a)

let test_metrics_histogram () =
  let r = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~bounds:[| 10.0; 100.0 |] r "lat" in
  List.iter (Obs.Metrics.observe h) [ 5.0; 50.0; 500.0; 7.0 ];
  Alcotest.(check int) "count" 4 (Obs.Metrics.count h);
  Alcotest.check (Alcotest.float 1e-9) "sum" 562.0 (Obs.Metrics.sum h);
  Alcotest.check (Alcotest.float 1e-9) "mean" 140.5 (Obs.Metrics.mean h);
  match Obs.Metrics.to_json r with
  | Obs.Json.Obj [ ("lat", Obs.Json.Obj fields) ] ->
      (match List.assoc "buckets" fields with
      | Obs.Json.Obj
          [
            ("le_10", Obs.Json.Int 2);
            ("le_100", Obs.Json.Int 1);
            ("le_inf", Obs.Json.Int 1);
          ] ->
          ()
      | j -> Alcotest.failf "unexpected buckets: %s" (Obs.Json.to_string j))
  | j -> Alcotest.failf "unexpected json: %s" (Obs.Json.to_string j)

let test_span_breakdown () =
  let r = Obs.Span.create () in
  Obs.Span.emit r ~name:"ckpt" ~t0:0.0 ~t1:10.0;
  Obs.Span.emit r ~name:"ckpt" ~t0:20.0 ~t1:50.0;
  Obs.Span.emit r ~name:"flush" ~t0:1.0 ~t1:2.0;
  Alcotest.(check int) "ckpt count" 2 (Obs.Span.count r "ckpt");
  Alcotest.check (Alcotest.float 1e-9) "ckpt total" 40.0 (Obs.Span.total_ns r "ckpt");
  (match Obs.Span.breakdown r with
  | [ ckpt; flush ] ->
      Alcotest.(check string) "order" "ckpt" ckpt.Obs.Span.s_name;
      Alcotest.check (Alcotest.float 1e-9) "ckpt mean" 20.0 ckpt.Obs.Span.mean_ns;
      Alcotest.check (Alcotest.float 1e-9) "ckpt max" 30.0 ckpt.Obs.Span.max_ns;
      Alcotest.check (Alcotest.float 1e-9) "flush total" 1.0 flush.Obs.Span.total_ns
  | l -> Alcotest.failf "expected 2 aggregates, got %d" (List.length l));
  Obs.Span.reset r;
  Alcotest.(check int) "reset" 0 (Obs.Span.count r "ckpt")

let test_span_keep_cap () =
  let r = Obs.Span.create ~keep:2 () in
  for i = 1 to 5 do
    Obs.Span.emit r ~name:"s" ~t0:0.0 ~t1:(float_of_int i)
  done;
  (* aggregates are exact even when raw retention is capped *)
  Alcotest.(check int) "agg count" 5 (Obs.Span.count r "s");
  match Obs.Span.to_json r with
  | Obs.Json.Obj [ _; ("spans", Obs.Json.List raw) ] ->
      Alcotest.(check int) "raw capped" 2 (List.length raw)
  | j -> Alcotest.failf "unexpected json: %s" (Obs.Json.to_string j)

let test_memobs_probe () =
  let mem = Simnvm.Memsys.create Simnvm.Memsys.default_config in
  let r = Obs.Metrics.create () in
  let sub = Obs.Memobs.attach r mem in
  Simnvm.Memsys.store mem 0 7;
  ignore (Simnvm.Memsys.load mem 0);
  ignore (Simnvm.Memsys.load mem 4096);
  Simnvm.Memsys.pwb mem 0;
  Simnvm.Memsys.psync mem;
  let v name = Obs.Metrics.value (Obs.Metrics.counter r ("mem." ^ name)) in
  Alcotest.(check int) "stores" 1 (v "stores");
  Alcotest.(check int) "loads" 2 (v "loads");
  Alcotest.(check int) "pwbs" 1 (v "pwbs");
  Alcotest.(check int) "psyncs" 1 (v "psyncs");
  (* the probe's fold of the bus agrees with the inline Stats counters *)
  let s = Simnvm.Memsys.stats mem in
  Alcotest.(check int) "stats agree on loads" s.Simnvm.Stats.loads (v "loads");
  Alcotest.(check int)
    "stats agree on misses"
    (s.Simnvm.Stats.dram_misses + s.Simnvm.Stats.nvm_misses)
    (v "misses.dram" + v "misses.nvm");
  (* detaching stops the probe but not Stats *)
  Simnvm.Event.unsubscribe (Simnvm.Memsys.bus mem) sub;
  ignore (Simnvm.Memsys.load mem 0);
  Alcotest.(check int) "probe detached" 2 (v "loads");
  Alcotest.(check int) "stats still counting" 3 s.Simnvm.Stats.loads

let test_flush_discipline_counters () =
  (* the dynamic twins of the static redundant-pwb / psync-no-pending
     rules: clean pwbs and unarmed psyncs *)
  let mem = Simnvm.Memsys.create Simnvm.Memsys.default_config in
  let r = Obs.Metrics.create () in
  ignore (Obs.Memobs.attach r mem);
  let v name = Obs.Metrics.value (Obs.Metrics.counter r ("mem." ^ name)) in
  Simnvm.Memsys.store mem 0 7;
  Simnvm.Memsys.pwb mem 0;
  Simnvm.Memsys.psync mem;
  Alcotest.(check int) "armed psync is not a noop" 0 (v "psyncs.noop");
  Alcotest.(check int) "dirty pwb is not clean" 0 (v "pwbs.clean");
  Simnvm.Memsys.psync mem;
  Alcotest.(check int) "psync with nothing pending" 1 (v "psyncs.noop");
  Simnvm.Memsys.pwb mem 0;
  Alcotest.(check int) "pwb of a clean line" 1 (v "pwbs.clean");
  Simnvm.Memsys.psync mem;
  Alcotest.(check int) "clean pwb does not arm" 2 (v "psyncs.noop");
  Simnvm.Memsys.store mem 0 9;
  Simnvm.Memsys.pwb mem 0;
  Simnvm.Memsys.pwb mem 0;
  Alcotest.(check int) "duplicate pwb is clean" 2 (v "pwbs.clean");
  Simnvm.Memsys.psync mem;
  Alcotest.(check int) "rearmed by the dirty pwb" 2 (v "psyncs.noop");
  Alcotest.(check int) "every pwb counted" 4 (v "pwbs")

let test_run_point_json () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.incr (Obs.Metrics.counter r "x");
  let spans = Obs.Span.create () in
  Obs.Span.emit spans ~name:"recovery" ~t0:0.0 ~t1:5.0;
  let pt =
    Obs.Run.point
      ~params:[ ("threads", Obs.Json.Int 4) ]
      ~throughput_mops:1.25
      ~metrics:r ~spans
      ~extra:[ ("note", Obs.Json.String "t") ]
      "sys"
  in
  let doc = Obs.Run.document [ Obs.Run.experiment "exp" [ pt ] ] in
  let s = Obs.Json.to_string doc in
  List.iter
    (fun needle ->
      if
        not
          (let len = String.length needle in
           let rec scan i =
             i + len <= String.length s
             && (String.sub s i len = needle || scan (i + 1))
           in
           scan 0)
      then Alcotest.failf "missing %S in %s" needle s)
    [
      {|"schema":"respct-sim/results/v1"|};
      {|"experiment":"exp"|};
      {|"label":"sys"|};
      {|"throughput_mops":1.25|};
      {|"recovery"|};
      {|"note":"t"|};
    ]

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "printer" `Quick test_json_printer;
          Alcotest.test_case "deterministic" `Quick test_json_deterministic;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
        ] );
      ( "spans",
        [
          Alcotest.test_case "breakdown" `Quick test_span_breakdown;
          Alcotest.test_case "keep cap" `Quick test_span_keep_cap;
        ] );
      ( "probes",
        [
          Alcotest.test_case "memobs pipeline probe" `Quick test_memobs_probe;
          Alcotest.test_case "flush-discipline counters" `Quick
            test_flush_discipline_counters;
          Alcotest.test_case "run point json" `Quick test_run_point_json;
        ] );
    ]
