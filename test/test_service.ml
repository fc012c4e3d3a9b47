(* Tests for the sharded KV service layer (lib/service): deterministic
   replay of whole runs, consistent-hash routing stability, admission
   saturation behaviour, the crash-one-shard-under-load scenario, which
   runs pipeline their checkpoints, the stall-overlap sweep, and a
   sharded-vs-single differential against the same request stream. *)

module Front = Service.Front
module Router = Service.Router
module Admission = Service.Admission
module Sched = Simsched.Scheduler

(* A config small enough that a test run takes well under a second but
   still crosses several checkpoint periods on every shard. *)
let tiny =
  {
    Front.smoke with
    Front.sessions = 60;
    requests = 6;
    keys = 4_000;
    prefill = 1_000;
  }

(* A hot, saturated config: every request a put to one of 16 keys, one
   worker per shard behind a 4-slot queue. It coalesces puts, rejects
   with Queue_full, retries and wraps the admission ring — paths the
   benchmark's workload never takes. *)
let hot =
  {
    tiny with
    Front.read_pct = 0;
    keys = 16;
    prefill = 8;
    think_ns = 500.;
    arrival_ns = 50.;
    sessions = 200;
    requests = 10;
    workers = 1;
    queue_cap = 4;
  }

let json r = Obs.Json.to_string (Front.to_json r)

(* The MD5 of a run's JSON document pins its exact output, every
   simulated value included. *)
let md5 s = Digest.to_hex (Digest.string s)

(* The checkpoint mode a run's document reports. *)
let pipeline_field r =
  Option.bind (Obs.Json.member "config" (Front.to_json r))
    (Obs.Json.member "pipeline")

(* Each shard's count of [name] spans, from the result's span summaries. *)
let span_counts r name =
  List.map
    (fun (_, j) ->
      match
        Option.bind
          (Option.bind (Obs.Json.member "summary" j) (Obs.Json.member name))
          (Obs.Json.member "count")
      with
      | Some (Obs.Json.Int n) -> n
      | _ -> 0)
    r.Front.r_span_json

(* Each shard's kept [name] spans as (t0, t1), from the result's JSON. *)
let kept_spans r name =
  let float k sp =
    match Obs.Json.member k sp with
    | Some (Obs.Json.Float f) -> f
    | _ -> Alcotest.failf "span without %s" k
  in
  List.map
    (fun (_, j) ->
      match Obs.Json.member "spans" j with
      | Some (Obs.Json.List sps) ->
          List.filter_map
            (fun sp ->
              if Obs.Json.member "name" sp = Some (Obs.Json.String name) then
                Some (float "t0_ns" sp, float "t1_ns" sp)
              else None)
            sps
      | _ -> Alcotest.fail "shard without spans")
    r.Front.r_span_json

(* ------------------------------------------------------------------ *)
(* Determinism: equal seeds give byte-identical structured output, and
   that output is pinned *)

let test_same_seed_byte_identical () =
  let run cfg = json (Front.run cfg) in
  let a = run tiny in
  let b = run tiny in
  Alcotest.(check string) "same seed, same bytes" a b;
  Alcotest.(check bool) "a crash-free run reports pipelined checkpoints" true
    (pipeline_field (Front.run tiny) = Some (Obs.Json.Bool true));
  Alcotest.(check string) "tiny output pinned"
    "690b563b8c7eb376372d02d25e9c3abd" (md5 a);
  let c = run { tiny with Front.seed = tiny.Front.seed + 1 } in
  Alcotest.(check bool) "different seed, different run" true (a <> c);
  (* every session's first request reaches the front end at one instant,
     so the pin holds the event heap's tie order (FIFO by insertion) *)
  Alcotest.(check string) "zero-gap arrivals output pinned"
    "542233d1026eacdcb04656a1e3e2316b"
    (md5 (run { tiny with Front.arrival_ns = 0. }));
  let r = Front.run hot in
  let coalesced =
    List.fold_left (fun n s -> n + s.Front.sr_coalesced) 0 r.Front.r_shards
  in
  Alcotest.(check bool) "hot run coalesces puts" true (coalesced > 0);
  Alcotest.(check bool) "hot run rejects with Queue_full" true
    (r.Front.r_rejected_full > 0);
  Alcotest.(check bool) "hot run retries" true (r.Front.r_retried > 0);
  let h = json r in
  Alcotest.(check string) "hot, same seed, same bytes" h (run hot);
  Alcotest.(check string) "hot output pinned"
    "390ed881ee6395246564efb1c3c6a85c" (md5 h)

(* ------------------------------------------------------------------ *)
(* A bad config is refused up front, naming its field, before any shard
   or image exists: a file-backed run leaves its directory empty. *)

let test_config_validated () =
  let cases =
    [
      ("keys", "Front.run: keys", fun c -> Front.run { c with Front.keys = 0 });
      ( "batch_max",
        "Front.run: batch_max",
        fun c -> Front.run { c with Front.batch_max = 0 } );
      ( "read_pct 150",
        "Front.run: read_pct",
        fun c -> Front.run { c with Front.read_pct = 150 } );
      ( "read_pct -1",
        "Front.run: read_pct",
        fun c -> Front.run { c with Front.read_pct = -1 } );
      ( "shards",
        "Front.run: shards/workers",
        fun c -> Front.run { c with Front.shards = 0 } );
      ( "requests",
        "Front.run: sessions/requests",
        fun c -> Front.run { c with Front.requests = 0 } );
      ( "crash_shard",
        "Front.run: crash_shard",
        fun c -> Front.run ~crash_at_ns:500_000.0 ~crash_shard:(-1) c );
    ]
  in
  Prockill.with_scratch_dir "respct-svc-test" (fun dir ->
      List.iter
        (fun (name, msg, run) ->
          List.iter
            (fun backend ->
              Alcotest.check_raises name (Invalid_argument msg) (fun () ->
                  ignore (run { tiny with Front.backend }));
              Alcotest.(check (array string))
                (name ^ ": no image left behind")
                [||] (Sys.readdir dir))
            [ Front.Sim; Front.File dir ])
        cases)

(* ------------------------------------------------------------------ *)
(* Routing: adding a shard moves only ~K/(N+1) keys, all onto the new
   shard — the consistent-hashing contract. *)

let qcheck_routing_stability =
  QCheck.Test.make ~count:30 ~name:"ring stability under shard addition"
    QCheck.(pair (int_range 2 8) (int_range 0 1_000_000))
    (fun (n, key_base) ->
      let before = Router.create ~shards:n ~vnodes:64 in
      let after = Router.create ~shards:(n + 1) ~vnodes:64 in
      let nkeys = 2_000 in
      let moved = ref 0 in
      for i = 0 to nkeys - 1 do
        let key = key_base + i in
        let a = Router.route before key in
        let b = Router.route after key in
        if a <> b then begin
          incr moved;
          if b <> n then
            QCheck.Test.fail_reportf
              "key %d moved %d -> %d, not onto the new shard %d" key a b n
        end
      done;
      let expected = float_of_int nkeys /. float_of_int (n + 1) in
      let ratio = float_of_int !moved /. expected in
      if ratio > 2.5 then
        QCheck.Test.fail_reportf "moved %d keys, expected ~%.0f" !moved
          expected;
      if !moved = 0 then
        QCheck.Test.fail_reportf "no key moved when shard %d appeared" n;
      true)

let test_ring_deterministic () =
  let r1 = Router.create ~shards:5 ~vnodes:64 in
  let r2 = Router.create ~shards:5 ~vnodes:64 in
  for key = 0 to 999 do
    Alcotest.(check int)
      (Printf.sprintf "key %d" key)
      (Router.route r1 key) (Router.route r2 key)
  done

(* ------------------------------------------------------------------ *)
(* Admission control: the queue never exceeds its cap, overflow is a
   typed rejection, accept/reject counts conserve offers, and what comes
   out (taken, then returned at close) is what went in, in offer order,
   across many wraps of the cap-slot ring. *)

let test_admission_saturation () =
  let sched = Sched.create ~seed:3 () in
  let q = Admission.create sched ~cap:32 in
  let offered = 600 in
  let taken = ref 0 in
  let rejected = ref 0 in
  let leftover = ref 0 in
  let admitted = ref [] and drained = ref [] in
  ignore
    (Sched.spawn ~name:"producer" sched (fun () ->
         for i = 1 to offered do
           (match Admission.offer q i with
           | Ok depth ->
               if depth > 32 then Alcotest.fail "depth exceeded cap";
               admitted := i :: !admitted
           | Error Admission.Queue_full -> incr rejected
           | Error Admission.Shard_down -> Alcotest.fail "queue is not down");
           (* a fast producer against a slow consumer *)
           Sched.sleep sched 10.0
         done;
         let left = Admission.close q in
         leftover := List.length left;
         drained := List.rev_append left !drained));
  ignore
    (Sched.spawn ~name:"consumer" sched (fun () ->
         let batch = Array.make 8 0 in
         let continue = ref true in
         while !continue do
           let n =
             Admission.take q batch ~wait:(fun cv mu ->
                 Simsched.Condvar.wait sched cv mu)
           in
           if n = 0 then continue := false
           else begin
             taken := !taken + n;
             for j = 0 to n - 1 do
               drained := batch.(j) :: !drained
             done;
             Sched.sleep sched 1_000.0
           end
         done));
  (match Sched.run sched with
  | Sched.Completed -> ()
  | Sched.Crash_interrupt _ -> Alcotest.fail "unexpected crash");
  Alcotest.(check bool) "saturation produced typed rejects" true (!rejected > 0);
  Alcotest.(check int) "offers conserved" offered
    (Admission.accepted q + Admission.rejected_full q);
  Alcotest.(check int) "accepted = taken + returned at close"
    (Admission.accepted q)
    (!taken + !leftover);
  Alcotest.(check bool)
    (Printf.sprintf "max depth %d within cap" (Admission.max_depth q))
    true
    (Admission.max_depth q <= 32);
  Alcotest.(check bool)
    (Printf.sprintf "%d accepted wrap the 32-slot ring" (Admission.accepted q))
    true
    (Admission.accepted q > 2 * 32);
  Alcotest.(check bool) "close returned leftovers" true (!leftover > 0);
  Alcotest.(check (list int))
    "taken then closed-over values arrive in offer order" (List.rev !admitted)
    (List.rev !drained)

let test_admission_down_typed () =
  let sched = Sched.create ~seed:4 () in
  let q = Admission.create sched ~cap:8 in
  ignore
    (Sched.spawn sched (fun () ->
         ignore (Admission.close q);
         (match Admission.offer q 1 with
         | Error Admission.Shard_down -> ()
         | Ok _ | Error Admission.Queue_full ->
             Alcotest.fail "offer to a closed queue must be Shard_down");
         Alcotest.(check int) "down rejects counted" 1
           (Admission.rejected_down q)));
  match Sched.run sched with
  | Sched.Completed -> ()
  | Sched.Crash_interrupt _ -> Alcotest.fail "unexpected crash"

(* ------------------------------------------------------------------ *)
(* Crash one shard mid-traffic: survivors keep serving and lose no
   sealed epoch; the victim recovers to its progress-log digest. *)

let test_crash_one_shard_under_load () =
  Prockill.with_scratch_dir "respct-svc-test" (fun dir ->
      let cfg =
        {
          tiny with
          Front.sessions = 100;
          requests = 8;
          backend = Front.File dir;
        }
      in
      let r = Front.run ~crash_at_ns:500_000.0 ~crash_shard:1 cfg in
      Alcotest.(check string) "crash drill output pinned"
        "cba0b5c19dd91e748c10fcb629656d49" (md5 (json r));
      (* the sealed-epoch oracle needs the classic synchronous seal *)
      Alcotest.(check bool) "the document reports classic checkpoints" true
        (pipeline_field r = Some (Obs.Json.Bool false));
      Alcotest.(check (list int))
        "crash trials force classic checkpoints: no overlap spans"
        (List.init cfg.Front.shards (fun _ -> 0))
        (span_counts r "checkpoint.overlap");
      match r.Front.r_crash with
      | None -> Alcotest.fail "crash report missing"
      | Some cr ->
          Alcotest.(check bool)
            (Printf.sprintf "recovered exactly (%s)" cr.Front.cr_verdict)
            true cr.Front.cr_exact;
          Alcotest.(check (list string))
            "no sealed epoch lost, image matches the recorded digest" []
            (List.map (Fmt.str "%a" Prockill.pp_violation)
               cr.Front.cr_violations);
          Alcotest.(check (option bool)) "the digest was compared" (Some true)
            cr.Front.cr_digest_match;
          Alcotest.(check bool) "clients saw typed Shard_down rejections" true
            (r.Front.r_rejected_down > 0);
          Alcotest.(check bool) "survivors kept serving after the crash" true
            (cr.Front.cr_survivor_mrps > 0.0);
          Alcotest.(check bool) "modeled recovery takes virtual time" true
            (cr.Front.cr_recovery_ns > 0.0);
          List.iter
            (fun sc ->
              Alcotest.(check bool)
                (Printf.sprintf "survivor %d image durable (%s)"
                   sc.Front.sc_shard sc.Front.sc_verdict)
                true sc.Front.sc_ok)
            r.Front.r_survivors;
          Alcotest.(check int) "every survivor audited"
            (cfg.Front.shards - 1)
            (List.length r.Front.r_survivors))

(* A pipelined file-backed run without a crash: the end-of-run audit
   power-cuts every shard's image, and each must recover exactly the
   digest recorded for its failed epoch. That digest is the logical state
   at the checkpoint's quiescent instant, which the pipelined walk
   persists only afterwards. *)
let test_pipelined_file_survivors_durable () =
  Prockill.with_scratch_dir "respct-svc-test" (fun dir ->
      let cfg = { tiny with Front.backend = Front.File dir } in
      let r = Front.run cfg in
      (* only a pipelined checkpoint emits checkpoint.overlap spans *)
      List.iteri
        (fun i n ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %d pipelined (%d overlap spans)" i n)
            true (n > 0))
        (span_counts r "checkpoint.overlap");
      Alcotest.(check int) "every shard audited" cfg.Front.shards
        (List.length r.Front.r_survivors);
      List.iter
        (fun sc ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %d image durable (%s)" sc.Front.sc_shard
               sc.Front.sc_verdict)
            true sc.Front.sc_ok)
        r.Front.r_survivors)

(* ------------------------------------------------------------------ *)
(* The stall overlap sweeps every stall interval: a short period over a
   long run makes each shard record thousands of stall spans, and every
   one of them is kept and swept. *)

let test_stall_overlap_reads_every_stall () =
  let r =
    Front.run
      {
        tiny with
        Front.shards = 8;
        period_ns = 5_000.;
        requests = 300;
        sessions = 40;
      }
  in
  let kept = kept_spans r "checkpoint.stall" in
  List.iteri
    (fun i (n, spans) ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d keeps its %d stall spans" i n)
        n (List.length spans))
    (List.combine (span_counts r "checkpoint.stall") kept);
  let evs =
    List.sort compare
      (List.concat_map
         (List.concat_map (fun (t0, t1) -> [ (t0, 1); (t1, -1) ]))
         kept)
  in
  let _, _, overlap =
    List.fold_left
      (fun (active, last, acc) (t, d) ->
        (active + d, t, if active >= 2 then acc +. (t -. last) else acc))
      (0, 0.0, 0.0) evs
  in
  Alcotest.check (Alcotest.float 0.0) "overlap swept over every stall"
    overlap r.Front.r_stall_overlap_ns

(* ------------------------------------------------------------------ *)
(* Differential: for conflict-free (session-disjoint) key sets, a
   3-shard service and a single-shard service converge to the same
   final KV map — routing cannot change what the service stores. *)

let final_map cfg =
  let r = Front.run cfg in
  Alcotest.(check int) "all requests completed" 0 r.Front.r_failed;
  List.sort compare (Option.get r.Front.r_final)

let qcheck_sharded_vs_single =
  QCheck.Test.make ~count:8 ~name:"sharded vs single-shard final map"
    QCheck.(int_range 1 1_000)
    (fun seed ->
      let base =
        {
          tiny with
          Front.sessions = 24;
          requests = 6;
          keys = 480;
          prefill = 120;
          read_pct = 40;
          disjoint_keys = true;
          collect_final = true;
          seed;
        }
      in
      let sharded = final_map { base with Front.shards = 3 } in
      let single = final_map { base with Front.shards = 1 } in
      if sharded <> single then
        QCheck.Test.fail_reportf
          "seed %d: 3-shard and 1-shard maps differ (%d vs %d bindings)" seed
          (List.length sharded) (List.length single);
      true)

(* ------------------------------------------------------------------ *)

let seeded = Gen_common.to_alcotest ~suite:"service"

let () =
  Alcotest.run "service"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, byte-identical JSON" `Quick
            test_same_seed_byte_identical;
        ] );
      ( "config",
        [
          Alcotest.test_case "bad fields refused up front" `Quick
            test_config_validated;
        ] );
      ( "routing",
        [
          Alcotest.test_case "ring deterministic" `Quick test_ring_deterministic;
          seeded qcheck_routing_stability;
        ] );
      ( "admission",
        [
          Alcotest.test_case "saturation bounded + typed" `Quick
            test_admission_saturation;
          Alcotest.test_case "closed queue rejects Shard_down" `Quick
            test_admission_down_typed;
        ] );
      ( "crash-under-load",
        [
          Alcotest.test_case "one shard dies, survivors keep serving" `Slow
            test_crash_one_shard_under_load;
          Alcotest.test_case "pipelined file run, every image durable" `Slow
            test_pipelined_file_survivors_durable;
        ] );
      ( "stall-overlap",
        [
          Alcotest.test_case "every stall span swept" `Quick
            test_stall_overlap_reads_every_stall;
        ] );
      ( "differential",
        [ seeded qcheck_sharded_vs_single ] );
    ]
