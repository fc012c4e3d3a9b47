(* Tests for the deterministic perf harness (lib/perf):

   - the order statistics are correct;
   - two same-seed smoke runs of the real benchmark suite export
     byte-identical documents;
   - the smoke preset's checkpoint-pause rows, read off the sweeps'
     points, are the ones the suite printed when it ran two extra points
     for them;
   - the sim gate is exact and two-sided: a planted 2x slowdown, a 2x
     speed-up and a one-op drift all fail it, and structural problems
     (missing benchmark, bad schema) are reported as errors;
   - the Obs.Json reader round-trips the writer's output. *)

module Stat = Perf.Stat
module Bench = Perf.Bench
module Compare = Perf.Compare
module Suite = Perf.Suite
module Json = Obs.Json

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-12)

(* ---------------------------------------------------------------- *)
(* Stat *)

let test_median_percentile () =
  checkf "odd median" 3.0 (Stat.median [| 5.0; 1.0; 3.0 |]);
  checkf "even median" 2.5 (Stat.median [| 4.0; 1.0; 2.0; 3.0 |]);
  (* nearest rank over 0 .. n-1: p = 0.5 of five values is the third *)
  let sorted = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  checkf "p0" 10.0 (Stat.percentile_of_sorted sorted 0.0);
  checkf "p50" 30.0 (Stat.percentile_of_sorted sorted 0.5);
  checkf "p60 rounds to the nearer rank" 30.0
    (Stat.percentile_of_sorted sorted 0.6);
  checkf "p99" 50.0 (Stat.percentile_of_sorted sorted 0.99);
  checkf "p100" 50.0 (Stat.percentile_of_sorted sorted 1.0);
  checkf "singleton" 42.0 (Stat.percentile_of_sorted [| 42.0 |] 0.99)

(* ---------------------------------------------------------------- *)
(* JSON round-trip *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("schema", Json.String "respct-sim/bench/v1");
        ("quote", Json.String "a\"b\\c\n\t");
        ("n", Json.Int (-3));
        ("x", Json.Float 1.5);
        ("tiny", Json.Float 1.25e-7);
        ("flag", Json.Bool true);
        ("nothing", Json.Null);
        ("xs", Json.List [ Json.Int 1; Json.Float 2.0; Json.String "z" ]);
        ("empty", Json.List []);
        ("nested", Json.Obj [ ("inner", Json.Obj []) ]);
      ]
  in
  checkb "compact round-trip" true
    (Json.of_string (Json.to_string doc) = Ok doc);
  checkb "pretty round-trip" true
    (Json.of_string (Json.to_string_pretty doc) = Ok doc)

(* ---------------------------------------------------------------- *)
(* Bench determinism on the real suite *)

let smoke_run () = Obs.Jobs.run (Suite.jobs Suite.smoke_preset)
let smoke_doc () =
  Json.to_string (Suite.document Suite.smoke_preset (fst (smoke_run ())))

let test_bench_determinism () =
  check Alcotest.string "same-seed smoke exports identical JSON"
    (smoke_doc ()) (smoke_doc ())

(* The smoke preset's pause rows, bit for bit, as the suite computed them
   from a separate classic and a separate pipelined ResPCT map run at the
   largest thread count (printed: classic 8.0 / 0.0 us per checkpoint,
   pipeline 0.8 / 8.0 us, 13 checkpoints each). *)
let test_checkpoint_pause_pinned () =
  let row (p : Suite.pause) =
    Printf.sprintf "%s stall=%h overlap=%h checkpoints=%d" p.Suite.pause_mode
      p.Suite.pause_stall_us p.Suite.pause_overlap_us p.Suite.pause_checkpoints
  in
  check
    Alcotest.(list string)
    "smoke pause rows"
    [
      "classic stall=0x1.ff571e67a909fp+2 overlap=0x0p+0 checkpoints=13";
      "pipeline stall=0x1.84ec4ec4ec4edp-1 overlap=0x1.0104e239a8b94p+3 \
       checkpoints=13";
    ]
    (List.map row (snd (smoke_run ())))

(* ---------------------------------------------------------------- *)
(* Regression gate *)

let doc bs = Bench.document ~preset:"test" bs
let base = [ { Bench.name = "b"; ops = 1_000_000; sim_ns = 1e9 } ]
let compare_to current =
  Compare.compare ~baseline:(doc base) ~current:(doc current)

let test_compare_self () =
  let r = compare_to base in
  checkb "self-compare passes" true (Compare.ok r);
  check Alcotest.int "one verdict" 1 (List.length r.Compare.verdicts);
  (* Values are compared as documents store them (%.12g): a difference
     the print drops passes, also where it drops the fraction. *)
  let at sim_ns = [ { Bench.name = "b"; ops = 1; sim_ns } ] in
  let r2 =
    Compare.compare ~baseline:(doc (at 123456789012.0))
      ~current:(doc (at 123456789012.25))
  in
  checkb "below print precision passes" true (Compare.ok r2)

(* The planted change and the sim_mops ratio it must show. *)
let check_changed what current ratio =
  match (compare_to [ current ]).Compare.verdicts with
  | [ v ] ->
      checkf (what ^ " ratio") ratio v.Compare.v_ratio;
      checkb (what ^ " fails") false v.Compare.v_ok
  | vs -> Alcotest.failf "%s: %d verdicts, want 1" what (List.length vs)

let test_compare_planted_slowdown () =
  (* 2x more virtual time for the same ops: sim_mops halves. *)
  check_changed "planted 2x slowdown"
    { Bench.name = "b"; ops = 1_000_000; sim_ns = 2e9 }
    0.5

let test_compare_two_sided () =
  check_changed "planted 2x speed-up"
    { Bench.name = "b"; ops = 1_000_000; sim_ns = 5e8 }
    2.0;
  check_changed "one more op"
    { Bench.name = "b"; ops = 1_000_001; sim_ns = 1e9 }
    1.000001;
  check_changed "one op fewer"
    { Bench.name = "b"; ops = 999_999; sim_ns = 1e9 }
    0.999999

let test_compare_structural () =
  let r = compare_to [ { Bench.name = "other"; ops = 1; sim_ns = 1e9 } ] in
  checkb "missing benchmark is an error" false (Compare.ok r);
  checkb "reported in errors" true (r.Compare.errors <> []);
  let bad = Json.Obj [ ("schema", Json.String "nope") ] in
  let r2 = Compare.compare ~baseline:bad ~current:(doc base) in
  checkb "bad schema is an error" false (Compare.ok r2);
  (* A benchmark only in the current document is new: passes. *)
  let r3 =
    compare_to (base @ [ { Bench.name = "new"; ops = 1; sim_ns = 1e9 } ])
  in
  checkb "new benchmark passes" true (Compare.ok r3)

let () =
  Alcotest.run "perf"
    [
      ( "stat",
        [
          Alcotest.test_case "median and percentile" `Quick
            test_median_percentile;
        ] );
      ("json", [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip ]);
      ( "bench",
        [
          Alcotest.test_case "same-seed determinism" `Quick
            test_bench_determinism;
          Alcotest.test_case "checkpoint-pause rows pinned" `Quick
            test_checkpoint_pause_pinned;
        ] );
      ( "compare",
        [
          Alcotest.test_case "self compare" `Quick test_compare_self;
          Alcotest.test_case "planted slowdown" `Quick
            test_compare_planted_slowdown;
          Alcotest.test_case "two-sided" `Quick test_compare_two_sided;
          Alcotest.test_case "structural errors" `Quick test_compare_structural;
        ] );
    ]
