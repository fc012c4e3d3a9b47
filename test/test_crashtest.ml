(* Tests for the crash explorer itself: that it passes correct systems,
   that it catches a deliberately planted persistence bug with a shrunk
   replayable counterexample, that the word-granular ablation breaks
   exactly the PCSO-reliant systems, that ResPCT recovery is idempotent
   under crashes *during* recovery, that the explorer's subscribers never
   leak past a world's teardown, and that a world's one event stream
   carries everything its memory and its recovery publish. *)

module Memsys = Simnvm.Memsys
module Event = Simnvm.Event
module Scheduler = Simsched.Scheduler
module Env = Simsched.Env
module Crashpoint = Crashtest.Crashpoint
module Explore = Crashtest.Explore
module Scenarios = Crashtest.Scenarios
module Report = Crashtest.Report
module Cx = Obs.Cx
module Schedule = Crashtest.Schedule
module Workmix = Crashtest.Workmix

let scenario_of id ~pcso ~n_ops =
  match Scenarios.find id with
  | Some e -> e.Scenarios.build ~sched_seed:1 ~mem_seed:1 ~pcso ~n_ops
  | None -> Alcotest.failf "unknown scenario %s" id

(* ------------------------------------------------------------------ *)
(* Workmix: seeded generators are deterministic and their model prefixes
   line up. *)

let test_workmix_deterministic () =
  let a = Workmix.map_ops ~seed:7 ~n:40 () in
  let b = Workmix.map_ops ~seed:7 ~n:40 () in
  Alcotest.(check bool) "same seed, same map mix" true (a = b);
  Alcotest.(check bool)
    "different seed, different mix" true
    (a <> Workmix.map_ops ~seed:8 ~n:40 ());
  let states = Workmix.map_states a in
  Alcotest.(check int) "n+1 prefix states" 41 (Array.length states);
  Alcotest.(check (list (pair int int))) "empty start" [] states.(0);
  let q = Workmix.queue_ops ~seed:7 ~n:40 () in
  Alcotest.(check bool)
    "same seed, same queue mix" true
    (q = Workmix.queue_ops ~seed:7 ~n:40 ());
  Alcotest.(check int)
    "queue prefix states" 41
    (Array.length (Workmix.queue_states q))

(* ------------------------------------------------------------------ *)
(* Correct systems survive the full crash matrix (small worlds). *)

let test_correct_systems_pass () =
  List.iter
    (fun id ->
      let o = Explore.explore (scenario_of id ~pcso:true ~n_ops:6) in
      Alcotest.(check int)
        (id ^ " boundaries > 0 sanity")
        0
        (if o.Explore.boundaries > 0 then 0 else 1);
      Alcotest.(check int) (id ^ " violations") 0 (List.length o.Explore.failures))
    [ "respct-map"; "respct-queue"; "clobber-map"; "soft-map"; "friedman-queue" ]

(* ------------------------------------------------------------------ *)
(* The registry invariant replay rests on: a printed [scenario=] field is
   the built scenario's name, and [replay] resolves it through [find]. A
   mismatch would make every counterexample of that entry unreplayable. *)

let test_registry_ids_resolve () =
  let ids = List.map (fun (e : Scenarios.entry) -> e.Scenarios.id) Scenarios.all in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun (e : Scenarios.entry) ->
      let id = e.Scenarios.id in
      Alcotest.(check bool)
        (id ^ ": find returns the entry")
        true
        (match Scenarios.find id with Some found -> found == e | None -> false);
      Alcotest.(check string)
        (id ^ ": built scenario is named by its id")
        id
        (e.Scenarios.build ~sched_seed:3 ~mem_seed:5 ~pcso:true ~n_ops:4)
          .Explore.name)
    Scenarios.all

(* ------------------------------------------------------------------ *)
(* The planted mutant: an append log that skips [add_modified] for every
   third word must be caught, shrink to a replayable counterexample, and
   replay. *)

(* Shrink the first failure of [o] against a campaign that rebuilds the
   scenario [id] with [rebuild]; the result must have replayed. *)
let shrink_first ?fault_seeds ~id ~rebuild ~n_ops (o : Explore.outcome) =
  match o.Explore.failures with
  | [] -> Alcotest.failf "%s was not caught" id
  | f :: _ ->
      let find x = if x = id then Some rebuild else None in
      let s =
        Cx.minimize
          (Report.campaign ?fault_seeds ~find ())
          (Report.witness_of ~n_ops o.Explore.scenario f, f.Explore.reason)
      in
      (match s.Cx.parity with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s counterexample does not replay: %s" id m);
      let w = s.Cx.witness in
      let point = Option.get w.Report.point in
      Alcotest.(check bool) (id ^ " shrunk op count <= original") true
        (w.Report.n_ops <= n_ops);
      Alcotest.(check bool)
        (id ^ " shrunk crash index <= original")
        true
        (point.Report.crash_index <= f.Explore.crash_index);
      s

let test_mutant_caught_and_shrunk () =
  let rebuild ~sched_seed ~mem_seed ~pcso ~n_ops =
    Scenarios.respct_raw ~mutant:true ~sched_seed ~mem_seed ~pcso ~n_ops ()
  in
  (* 18 ops so the run crosses several checkpoints: the oracle can only
     see the missing [add_modified] once a checkpoint that should have
     flushed the word has completed. *)
  let sc = rebuild ~sched_seed:1 ~mem_seed:1 ~pcso:true ~n_ops:18 in
  let o = Explore.explore ~stop_at_first_failure:true sc in
  ignore (shrink_first ~id:sc.Explore.name ~rebuild ~n_ops:18 o)

(* A world whose re-execution raises on the way to a crash point: the
   single-point replay must report it exactly as the explorer does, not
   raise. *)
let test_check_point_reports_raise () =
  let made = ref 0 in
  let make ~n_ops:_ =
    incr made;
    let rerun = !made > 1 in
    let mem = Memsys.create (Scenarios.mem_cfg ~mem_seed:1 ~pcso:true) in
    {
      Explore.mem;
      run =
        (fun () ->
          for i = 0 to 4 do
            if rerun && i = 3 then failwith "boom";
            Memsys.store mem i 1
          done);
      completed = (fun () -> 0);
      recover_check = (fun () -> Ok ());
      recover_check_faulty = None;
      oracle_key = None;
    }
  in
  let sc =
    { Explore.name = "raise-on-rerun"; sched_seed = 1; mem_seed = 1;
      pcso = true; n_ops = 0; make }
  in
  match (Explore.explore ~stop_at_first_failure:true sc).Explore.failures with
  | [ f ] ->
      Alcotest.(check int) "explorer fails at the third store" 3
        f.Explore.crash_index;
      Alcotest.(check (result unit string))
        "check_point reports what explore reports" (Error f.Explore.reason)
        (Explore.check_point sc ~crash_index:f.Explore.crash_index
           ~variant:f.Explore.variant)
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs)

(* ------------------------------------------------------------------ *)
(* What the explorer checks, enumerated independently: a passive
   subscriber on a fresh world of the scenario sees each boundary at the
   instant its event is published, and [images_at] lists that boundary's
   images in the explorer's order — baseline, each single-line (or, off
   PCSO, single-word) eviction, then all lines. *)

let images_at ~pcso ~line_words (dirty : Memsys.dirty_line list) =
  let singles =
    List.concat_map
      (fun (dl : Memsys.dirty_line) ->
        if pcso then [ Explore.Evict_line dl.Memsys.lineno ]
        else
          List.filter_map
            (fun off ->
              if dl.Memsys.mask land (1 lsl off) <> 0 then
                Some (Explore.Evict_word ((dl.Memsys.lineno * line_words) + off))
              else None)
            (List.init line_words Fun.id))
      dirty
  in
  (Explore.Baseline :: singles) @ if dirty = [] then [] else [ Explore.Evict_all ]

(* [at k ev inst] at every boundary [k] of a fresh world [inst] of [sc],
   run to completion; [ev] is the boundary's event. *)
let observe (sc : Explore.scenario) at =
  let inst = sc.Explore.make ~n_ops:sc.Explore.n_ops in
  let mem = inst.Explore.mem in
  let nvm_words = (Memsys.config mem).Memsys.nvm_words in
  let k = ref 0 in
  let bus = Memsys.bus mem in
  let sub =
    Event.subscribe bus (fun ev ->
        if Crashpoint.persist_event ~nvm_words ev then begin
          at !k ev inst;
          incr k
        end)
  in
  Fun.protect ~finally:(fun () -> Event.unsubscribe bus sub) inst.Explore.run

(* Order-free digest of a persistent image: the XOR of one hash per
   nonzero word, so an eviction's pokes update it word by word. *)
let word_hash addr v =
  if v = 0 then 0 else ((addr * 0x9E3779B1) lxor v) * 0x100000001b3

let image_digest img =
  let d = ref 0 in
  Array.iteri (fun a v -> d := !d lxor word_hash a v) img;
  !d

(* The same digest of [mem]'s persisted image, read in place. *)
let persisted_digest mem =
  let d = ref 0 in
  for a = 0 to (Memsys.config mem).Memsys.nvm_words - 1 do
    d := !d lxor word_hash a (Memsys.persisted mem a)
  done;
  !d

(* Each image [images_at] lists at [mem]'s current boundary, with its
   digest: the persisted image's, each evicted word swapped in. *)
let image_digests ~pcso mem =
  let lw = (Memsys.config mem).Memsys.line_words in
  let dirty = Memsys.dirty_nvm_lines mem in
  let line l = List.find (fun dl -> dl.Memsys.lineno = l) dirty in
  let swap d a v = d lxor word_hash a (Memsys.persisted mem a) lxor word_hash a v in
  let evict d (dl : Memsys.dirty_line) =
    let d = ref d in
    for off = 0 to lw - 1 do
      if dl.Memsys.mask land (1 lsl off) <> 0 then
        d := swap !d ((dl.Memsys.lineno * lw) + off) dl.Memsys.data.(off)
    done;
    !d
  in
  let base = persisted_digest mem in
  List.map
    (fun v ->
      ( v,
        match v with
        | Explore.Baseline -> base
        | Explore.Evict_line l -> evict base (line l)
        | Explore.Evict_word a -> swap base a (line (a / lw)).Memsys.data.(a mod lw)
        | Explore.Evict_all -> List.fold_left evict base dirty ))
    (images_at ~pcso ~line_words:lw dirty)

(* The image each recovery gets is the persisted image at the boundary's
   instant plus the variant's write-backs. A crash taken by unwinding the
   world instead lets its cleanup code (a lock release, a thread
   deregistering) run other threads first, and their write-backs leak
   into the image: in this pipelined world, boundary 251 would carry line
   6 persisted and never check the image without it.

   The explorer recovers each distinct image once per segment, so the
   images it recovers must be, in order, a subsequence of the
   crash-instant images, and each image it skips must equal one it
   recovered before. The segment rule itself is pinned here too: a
   boundary whose event is not a write-back has the persistent image of
   the boundary before it. *)
let test_images_are_the_crash_instant () =
  let max_images = 48 in
  let sc =
    Scenarios.respct_map ~pipeline:true ~sched_seed:1 ~mem_seed:1 ~pcso:true
      ~n_ops:18 ()
  in
  let want = ref [] and prev = ref None and kept = ref 0 in
  observe sc (fun k ev inst ->
      let mem = inst.Explore.mem in
      let img = Memsys.image mem in
      (match (ev, !prev) with
      | Event.Writeback _, _ | _, None -> ()
      | _, Some p ->
          if img <> p then
            Alcotest.failf "boundary %d (%a) changed the persistent image" k
              Event.pp ev;
          incr kept);
      prev := Some img;
      List.iteri
        (fun i (_, d) -> if i < max_images then want := (k, d) :: !want)
        (image_digests ~pcso:true mem));
  Alcotest.(check bool) "the image stays put across some boundaries" true
    (!kept > 0);
  let got = ref [] in
  let make ~n_ops =
    let inst = sc.Explore.make ~n_ops in
    {
      inst with
      Explore.recover_check =
        (fun () ->
          got := image_digest (Memsys.image inst.Explore.mem) :: !got;
          inst.Explore.recover_check ());
    }
  in
  let o =
    Explore.explore ~max_images_per_point:max_images { sc with Explore.make }
  in
  Alcotest.(check int) "no violations" 0 (List.length o.Explore.failures);
  Alcotest.(check int) "every crash-instant image judged"
    (List.length !want) o.Explore.images;
  Alcotest.(check int) "recoveries counted" (List.length !got)
    o.Explore.recoveries;
  Alcotest.(check bool) "repeats not recovered" true
    (o.Explore.recoveries < o.Explore.images);
  let recovered = Hashtbl.create 1024 in
  let rec first i want got =
    match (want, got) with
    | [], [] -> ()
    | (_, w) :: want, g :: got when w = g ->
        Hashtbl.replace recovered w ();
        first (i + 1) want got
    | (k, w) :: want, got ->
        if not (Hashtbl.mem recovered w) then
          Alcotest.failf
            "image %d (boundary %d) is neither recovered in order nor a \
             repeat"
            i k;
        first (i + 1) want got
    | [], _ :: _ ->
        Alcotest.failf "%d recovered images are not crash-instant images"
          (List.length got)
  in
  first 0 (List.rev !want) (List.rev !got)

(* The failures of [sc] that fresh worlds report: every image of every
   boundary, replayed by [check_point] on a world of its own — which
   never resumes a memory, runs a world on after a nested recovery, nor
   reuses a verdict. Also returns the number of images. *)
let fresh_world_failures ~pcso ~fault_seeds (sc : Explore.scenario) =
  let points = ref [] in
  observe sc (fun k _ inst ->
      let mem = inst.Explore.mem in
      let line_words = (Memsys.config mem).Memsys.line_words in
      points :=
        (k, images_at ~pcso ~line_words (Memsys.dirty_nvm_lines mem))
        :: !points);
  let fault_options = None :: List.map Option.some fault_seeds in
  ( List.concat_map
      (fun (crash_index, variants) ->
        List.concat_map
          (fun variant ->
            List.filter_map
              (fun fault_seed ->
                match
                  Explore.check_point ?fault_seed sc ~crash_index ~variant
                with
                | Ok () -> None
                | Error reason ->
                    Some { Explore.crash_index; variant; fault_seed; reason })
              fault_options)
          variants)
      (List.rev !points),
    List.length (List.concat_map snd !points) * List.length fault_options )

let failures_t = Alcotest.(list (testable Report.pp_failure ( = )))

(* The single pass against fresh worlds: [explore]'s one checking run,
   with its verdict memo, must fail exactly where, and why, the fresh
   worlds fail. The two mutants give the memo failing verdicts to reuse,
   on fault images too. *)
let test_single_pass_equals_fresh_worlds () =
  List.iter
    (fun (id, pcso, fault_seeds) ->
      let sc = scenario_of id ~pcso ~n_ops:6 in
      let want, images = fresh_world_failures ~pcso ~fault_seeds sc in
      let o = Explore.explore ~max_images_per_point:max_int ~fault_seeds sc in
      Alcotest.(check int) (id ^ ": images") images o.Explore.images;
      Alcotest.check failures_t
        (id ^ ": failures equal the fresh worlds'")
        want o.Explore.failures)
    [
      ("respct-map", false, []);
      ("respct-queue", false, []);
      ("quadra-map", false, []);
      ("clobber-map", false, []);
      ("respct-map-pipeline", true, []);
      ("respct-map-integrity", true, [ 7 ]);
      ("respct-map-noverify", true, [ 7 ]);
      ("respct-map-pipeline-mutant-earlyseal", true, []);
    ]

(* The oracle key's teeth: a world whose oracle reads a host counter that
   moves at every store. Without [flush] no line is written back, so
   every image stays the same; with it, each store is fenced, the
   counter moves and then the line is written back, so a verdict carried
   across that write-back would be the old counter's. Keyed on the
   counter (or keyless), the memo must give the fresh worlds' verdicts;
   under a constant key it reuses stale ones, and the comparison must
   see that. *)
let test_oracle_key_has_teeth () =
  let counter_world ~flush key ~n_ops:_ =
    let mem = Memsys.create (Scenarios.mem_cfg ~mem_seed:1 ~pcso:true) in
    let stores = ref 0 in
    {
      Explore.mem;
      run =
        (fun () ->
          for i = 0 to 5 do
            Memsys.store mem (i * 8) 1;
            if flush then Memsys.psync mem;
            incr stores;
            if flush then Memsys.pwb mem (i * 8)
          done);
      completed = (fun () -> 0);
      recover_check =
        (fun () ->
          if !stores mod 2 = 0 then Ok ()
          else Error (Printf.sprintf "%d stores" !stores));
      recover_check_faulty = None;
      oracle_key = Option.map (fun key () -> key !stores) key;
    }
  in
  List.iter
    (fun flush ->
      let explore_and_fresh key =
        let sc =
          { Explore.name = "counter-oracle"; sched_seed = 1; mem_seed = 1;
            pcso = true; n_ops = 0; make = counter_world ~flush key }
        in
        let want, _ = fresh_world_failures ~pcso:true ~fault_seeds:[] sc in
        ((Explore.explore ~max_images_per_point:max_int sc).Explore.failures, want)
      in
      let name what = Printf.sprintf "flush=%b: %s" flush what in
      let keyed, want = explore_and_fresh (Some Fun.id) in
      Alcotest.(check bool) (name "the fresh worlds fail") true (want <> []);
      Alcotest.check failures_t (name "keyed on the counter") want keyed;
      let keyless, _ = explore_and_fresh None in
      Alcotest.check failures_t (name "keyless") want keyless;
      let constant, _ = explore_and_fresh (Some (fun _ -> 0)) in
      Alcotest.(check bool) (name "a constant key reuses stale verdicts") true
        (constant <> want))
    [ false; true ]

(* A verdict carried across a write-back meets only the image it was
   given for. On the benchmark's crash-matrix world (verified ResPCT map,
   seed 84) each recovery records its persisted image's digest and the
   oracle key, and every image the explorer enumerates but does not
   recover must equal one recovered before under the same key. Under
   PCSO some write-back boundary's baseline, the first image of a new
   segment, is carried rather than recovered. Under pcso = false the memo
   empties at every write-back, so an image skipped at a write-back
   boundary repeats one recovered at that same boundary. *)
let test_carried_verdicts_meet_same_image () =
  List.iter
    (fun (pcso, n_ops) ->
      let sc =
        Scenarios.respct_map ~fault_mode:`Verified ~sched_seed:84 ~mem_seed:84
          ~pcso ~n_ops ()
      in
      let key (inst : Explore.instance) =
        Option.map (fun f -> f ()) inst.Explore.oracle_key
      in
      let want = ref [] in
      observe sc (fun k ev inst ->
          let wb = match ev with Event.Writeback _ -> true | _ -> false in
          List.iter
            (fun (v, d) -> want := (k, wb, v, (d, key inst)) :: !want)
            (image_digests ~pcso inst.Explore.mem));
      let got = ref [] in
      let make ~n_ops =
        let inst = sc.Explore.make ~n_ops in
        {
          inst with
          Explore.recover_check =
            (fun () ->
              got := (persisted_digest inst.Explore.mem, key inst) :: !got;
              inst.Explore.recover_check ());
        }
      in
      let o =
        Explore.explore ~max_images_per_point:max_int { sc with Explore.make }
      in
      let name what = Printf.sprintf "pcso=%b: %s" pcso what in
      Alcotest.(check int) (name "images") (List.length !want) o.Explore.images;
      Alcotest.(check int) (name "recoveries") (List.length !got)
        o.Explore.recoveries;
      let recovered = Hashtbl.create 1024 and here = Hashtbl.create 64 in
      let carried = ref 0 in
      let rec walk at want got =
        match (want, got) with
        | [], [] -> ()
        | [], _ :: _ ->
            Alcotest.failf "%s: %d recoveries are not enumerated images"
              (name "walk") (List.length got)
        | (k, wb, v, img) :: want, got -> (
            if k <> at then Hashtbl.reset here;
            match got with
            | g :: got when g = img ->
                Hashtbl.replace recovered img ();
                Hashtbl.replace here img ();
                walk k want got
            | _ ->
                if not (Hashtbl.mem recovered img) then
                  Alcotest.failf
                    "%s: boundary %d: an image not recovered under its key \
                     took a verdict"
                    (name "walk") k;
                if wb && (not pcso) && not (Hashtbl.mem here img) then
                  Alcotest.failf
                    "%s: boundary %d: a verdict survived a write-back"
                    (name "walk") k;
                if wb && v = Explore.Baseline then incr carried;
                walk k want got)
      in
      walk (-1) (List.rev !want) (List.rev !got);
      Alcotest.(check bool)
        (name "a write-back boundary's baseline carried")
        pcso (!carried > 0))
    [ (true, 60); (false, 12) ]

(* The exploration's work, pinned on the benchmark's crash-matrix worlds
   (verified ResPCT map, PCSO, 100 ops, seeds 84 and 85): boundaries,
   enumerated images and recoveries actually run. A change that only
   makes exploring cheaper keeps all three; one that recovers a different
   set of images, or reaches a different set of boundaries, fails
   here. Before verdicts survived a write-back, every write-back emptied
   the memo and the two worlds ran 1 950 and 1 842 recoveries; the
   distinct images per oracle key, the floor any memo can reach, are
   1 646 and 1 543. *)
let test_exploration_work_pinned () =
  List.iter
    (fun (seed, boundaries, images, recoveries) ->
      let o =
        Explore.explore
          (Scenarios.respct_map ~fault_mode:`Verified ~sched_seed:seed
             ~mem_seed:seed ~pcso:true ~n_ops:100 ())
      in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check int) (name "boundaries") boundaries o.Explore.boundaries;
      Alcotest.(check int) (name "images") images o.Explore.images;
      Alcotest.(check int) (name "recoveries") recoveries o.Explore.recoveries;
      Alcotest.(check int) (name "failures") 0 (List.length o.Explore.failures))
    [ (84, 983, 8_301, 1_728); (85, 948, 7_857, 1_643) ]

(* A boundary's bookkeeping allocates what it returns, however many cache
   slots are clean: a fingerprint its record (3 words; 8 when it built a
   closure over the line size per call), and [dirty_nvm_lines] a cons, a
   record and a copy of the words per dirty line. *)
let test_boundary_bookkeeping_words () =
  let sc =
    Scenarios.respct_map ~fault_mode:`Verified ~sched_seed:84 ~mem_seed:84
      ~pcso:true ~n_ops:30 ()
  in
  let inst = sc.Explore.make ~n_ops:30 in
  let mem = inst.Explore.mem in
  let lw = (Memsys.config mem).Memsys.line_words in
  let checked = ref 0 in
  Crashpoint.walk mem inst.Explore.run ~at:(fun k _ ->
      if k mod 50 = 25 then begin
        let w0 = Gc.minor_words () in
        let w1 = Gc.minor_words () in
        ignore (Sys.opaque_identity (Crashpoint.fingerprint mem ~completed:0));
        let w2 = Gc.minor_words () in
        let dirty = Sys.opaque_identity (Memsys.dirty_nvm_lines mem) in
        let w3 = Gc.minor_words () in
        let words a b = int_of_float (b -. a -. (w1 -. w0)) in
        let name what = Printf.sprintf "boundary %d: %s" k what in
        Alcotest.(check int) (name "fingerprint words") 3 (words w1 w2);
        Alcotest.(check int) (name "dirty_nvm_lines words")
          ((8 + lw) * List.length dirty)
          (words w2 w3);
        incr checked
      end);
  Alcotest.(check bool) "boundaries checked" true (!checked > 0)

(* One verified recovery's allocation, on the benchmark's crash-matrix
   world at seed 84 with 60 ops, run to its end and crashed: the second of
   two calls on the same image, so nothing is allocated the first time
   only. The bound is the count when each call built a one-fiber
   scheduler world (609 words in this test's profile). *)
let test_verified_recovery_words () =
  let sc =
    Scenarios.respct_map ~fault_mode:`Verified ~sched_seed:84 ~mem_seed:84
      ~pcso:true ~n_ops:60 ()
  in
  let inst = sc.Explore.make ~n_ops:60 in
  inst.Explore.run ();
  let mem = inst.Explore.mem in
  Memsys.crash mem;
  let cfg = Memsys.config mem in
  let rt = Scenarios.rt_cfg in
  let layout =
    Respct.Layout.v ~integrity:true ~line_words:cfg.Memsys.line_words
      ~nvm_words:cfg.Memsys.nvm_words
      ~max_threads:rt.Respct.Runtime.max_threads
      ~registry_per_slot:rt.Respct.Runtime.registry_per_slot ()
  in
  let b = Simnvm.Backend.of_memsys mem in
  let image = Memsys.snapshot mem in
  let recover () =
    Memsys.restore mem image;
    Respct.Recovery.run_verified_backend ~layout b
  in
  let first = recover () in
  let w0 = Gc.minor_words () in
  let second = recover () in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "the scan did work" true
    (second.Respct.Recovery.vreport.Respct.Recovery.scanned > 0
    && first.Respct.Recovery.vreport = second.Respct.Recovery.vreport);
  if words > 609.0 then
    Alcotest.failf "one verified recovery allocated %.0f words, bound 609"
      words

let test_unmutated_raw_passes () =
  let sc =
    Scenarios.respct_raw ~sched_seed:1 ~mem_seed:1 ~pcso:true ~n_ops:9 ()
  in
  let o = Explore.explore sc in
  Alcotest.(check int) "no violations" 0 (List.length o.Explore.failures)

(* ------------------------------------------------------------------ *)
(* Ablation asymmetry: word-granular write-back must break the
   InCLL-based systems and leave the explicitly-flushing ones passing. *)

let test_ablation_breaks_incll () =
  List.iter
    (fun id ->
      let o =
        Explore.explore ~stop_at_first_failure:true
          (scenario_of id ~pcso:false ~n_ops:8)
      in
      Alcotest.(check bool)
        (id ^ " breaks under word-granular write-back")
        true
        (o.Explore.failures <> []))
    [ "respct-map"; "quadra-map"; "quadra-queue" ]

let test_ablation_spares_explicit_flushers () =
  List.iter
    (fun id ->
      let o = Explore.explore (scenario_of id ~pcso:false ~n_ops:6) in
      Alcotest.(check int)
        (id ^ " holds under word-granular write-back")
        0
        (List.length o.Explore.failures))
    [ "clobber-map"; "clobber-queue"; "soft-map"; "friedman-queue" ]

(* ------------------------------------------------------------------ *)
(* Recovery idempotence: crash ResPCT recovery at every persist-event
   boundary of the recovery itself; re-running recovery must produce a
   byte-identical persistent image and the same rolled-back report. *)

let respct_world ?(cfg = Scenarios.rt_cfg) ~n_ops () =
  let mem = Memsys.create (Scenarios.mem_cfg ~mem_seed:1 ~pcso:true) in
  let sched = Scheduler.create ~seed:1 () in
  let env = Env.make mem sched in
  let rt = Respct.Runtime.create ~cfg env in
  Respct.Runtime.start rt;
  ignore
    (Respct.Runtime.spawn rt ~slot:0 (fun _ctx ->
         let m = Pds.Hashmap_respct.create rt ~slot:0 ~buckets:8 in
         List.iter
           (fun op ->
             (match op with
             | Workmix.Insert (key, value) ->
                 ignore (Pds.Hashmap_respct.insert m ~slot:0 ~key ~value)
             | Workmix.Remove key ->
                 ignore (Pds.Hashmap_respct.remove m ~slot:0 ~key)
             | Workmix.Search key ->
                 ignore (Pds.Hashmap_respct.search m ~slot:0 ~key));
             Respct.Runtime.rp rt ~slot:0 1)
           (Gen_common.map_ops ~seed:5 ~n:n_ops ());
         Respct.Runtime.stop rt));
  let run () =
    match Scheduler.run sched with
    | Scheduler.Completed | Scheduler.Crash_interrupt _ -> ()
  in
  (mem, sched, rt, run)

let count_recovery_boundaries mem ~layout =
  let nvm_words = (Memsys.config mem).Memsys.nvm_words in
  let n = ref 0 in
  let bus = Memsys.bus mem in
  let sub =
    Event.subscribe bus (fun ev ->
        if Crashpoint.persist_event ~nvm_words ev then incr n)
  in
  let rep =
    Fun.protect
      ~finally:(fun () -> Event.unsubscribe bus sub)
      (fun () -> Respct.Recovery.run ~layout mem)
  in
  (!n, rep)

(* A crash at boundary [j] of [run]: raised out of the crash-point
   subscriber, it unwinds the world there. *)
exception Crash_here

let crash_at mem j run =
  match
    Crashpoint.walk mem run ~at:(fun k _ -> if k = j then raise Crash_here)
  with
  | () -> false
  | exception Crash_here -> true

let interrupt_recovery_at mem ~layout j =
  if not (crash_at mem j (fun () -> ignore (Respct.Recovery.run ~layout mem)))
  then Alcotest.failf "recovery finished before boundary %d" j

let test_recovery_idempotent () =
  (* Pilot the world once to learn its boundary count, then pick a crash
     point deep enough that several epochs and rollbacks are in play. *)
  let mem, _sched, _rt, run = respct_world ~n_ops:12 () in
  let boundaries =
    Array.length (Crashpoint.pilot mem ~completed:(fun () -> 0) run)
  in
  Alcotest.(check bool) "world persists something" true (boundaries > 10);
  let crash_index = boundaries * 2 / 3 in
  let mem, _sched, rt, run = respct_world ~n_ops:12 () in
  if not (crash_at mem crash_index run) then
    Alcotest.fail "crash boundary never reached";
  Memsys.crash mem;
  let layout = Respct.Runtime.layout rt in
  let post_crash = Memsys.snapshot mem in
  (* Reference: uninterrupted recovery. *)
  let rb, rep_ref = count_recovery_boundaries mem ~layout in
  let image_ref = Memsys.image mem in
  let cells_ref = List.sort compare rep_ref.Respct.Recovery.rolled_back in
  Alcotest.(check bool) "recovery persists something" true (rb > 0);
  (* Crash recovery at each of its own boundaries and re-run. *)
  for j = 0 to rb - 1 do
    Memsys.restore mem post_crash;
    interrupt_recovery_at mem ~layout j;
    Memsys.crash mem;
    let rep = Respct.Recovery.run ~layout mem in
    Alcotest.(check bool)
      (Printf.sprintf "image identical after crash@%d + re-run" j)
      true
      (Memsys.image mem = image_ref);
    Alcotest.(check int)
      (Printf.sprintf "failed epoch stable after crash@%d" j)
      rep_ref.Respct.Recovery.failed_epoch rep.Respct.Recovery.failed_epoch;
    Alcotest.(check bool)
      (Printf.sprintf "rolled-back cells identical after crash@%d" j)
      true
      (List.sort compare rep.Respct.Recovery.rolled_back = cells_ref)
  done

(* ------------------------------------------------------------------ *)
(* Subscriber hygiene: the explorer's counting subscribers must detach on
   every exit path — completion, crash, and exceptions out of the world. *)

let subscribers mem = Event.subscriber_count (Memsys.bus mem)

let test_subscribers_detach () =
  let sc = scenario_of "respct-map" ~pcso:true ~n_ops:6 in
  let inst = sc.Explore.make ~n_ops:6 in
  let before = subscribers inst.Explore.mem in
  let boundaries =
    Array.length
      (Crashpoint.pilot inst.Explore.mem ~completed:inst.Explore.completed
         inst.Explore.run)
  in
  Alcotest.(check int) "pilot detaches" before
    (subscribers inst.Explore.mem);
  let inst2 = sc.Explore.make ~n_ops:6 in
  let before2 = subscribers inst2.Explore.mem in
  if not (crash_at inst2.Explore.mem (boundaries / 2) inst2.Explore.run) then
    Alcotest.fail "expected a crash";
  Alcotest.(check int) "crashed run detaches" before2
    (subscribers inst2.Explore.mem)

let test_subscribers_detach_on_raise () =
  let mem = Memsys.create (Scenarios.mem_cfg ~mem_seed:1 ~pcso:true) in
  let before = subscribers mem in
  (match
     Crashpoint.pilot mem ~completed:(fun () -> 0) (fun () -> failwith "boom")
   with
  | _ -> Alcotest.fail "pilot swallowed the exception"
  | exception Failure _ -> ());
  Alcotest.(check int) "pilot detaches on raise" before
    (subscribers mem);
  (match
     Crashpoint.walk mem ~at:(fun _ _ -> ()) (fun () -> failwith "boom")
   with
  | _ -> Alcotest.fail "walk swallowed the exception"
  | exception Failure _ -> ());
  Alcotest.(check int) "walk detaches on raise" before
    (subscribers mem)

(* ------------------------------------------------------------------ *)
(* One event stream per world: the memory publishes every access on the
   scheduler's bus, and recovery's own schedulers publish there too. *)

(* Folding [Stats.subscriber] over the world's recorded stream must give
   exactly what the memory's inline counters counted in the same window:
   every access, cache outcome, write-back and crash reaches the bus, each
   once. *)
let test_stream_folds_to_stats () =
  let mem, sched, rt, run = respct_world ~n_ops:12 () in
  let s = Memsys.stats mem in
  let before = { s with Simnvm.Stats.loads = s.Simnvm.Stats.loads } in
  let (), events =
    Event.record (Scheduler.trace_bus sched) (fun () ->
        run ();
        Memsys.crash mem;
        ignore (Respct.Recovery.run ~layout:(Respct.Runtime.layout rt) mem))
  in
  let folded = Simnvm.Stats.create () in
  List.iter (Simnvm.Stats.subscriber folded) events;
  let open Simnvm.Stats in
  List.iter
    (fun (name, f) ->
      Alcotest.(check int) name (f s - f before) (f folded))
    [
      ("loads", fun c -> c.loads);
      ("stores", fun c -> c.stores);
      ("hits", fun c -> c.hits);
      ("dram_misses", fun c -> c.dram_misses);
      ("nvm_misses", fun c -> c.nvm_misses);
      ("dram_writebacks", fun c -> c.dram_writebacks);
      ("nvm_writebacks", fun c -> c.nvm_writebacks);
      ("pwbs", fun c -> c.pwbs);
      ("psyncs", fun c -> c.psyncs);
      ("spontaneous_evictions", fun c -> c.spontaneous_evictions);
      ("crashes", fun c -> c.crashes);
      ("media_errors", fun c -> c.media_errors);
      ("media_scrubs", fun c -> c.media_scrubs);
    ];
  Alcotest.(check bool) "the window saw cache outcomes and write-backs" true
    (folded.hits > 0 && folded.nvm_misses > 0 && folded.nvm_writebacks > 0
    && folded.crashes = 1)

(* Env.make couples the memory to the scheduler's bus; Recovery.run
   builds its scheduler on that same bus and Recovery.run_verified
   accesses the memory directly, so a subscriber attached to the world
   before recovery counts recovery's persists, and the memory keeps
   publishing there afterwards. *)
let test_recovery_shares_the_bus () =
  let cfg = { Scenarios.rt_cfg with Respct.Runtime.integrity = true } in
  let mem, sched, rt, run = respct_world ~cfg ~n_ops:12 () in
  let bus = Scheduler.trace_bus sched in
  Alcotest.(check bool) "Env.make couples the memory" true
    (Memsys.bus mem == bus);
  run ();
  let layout = Respct.Runtime.layout rt in
  let nvm_words = (Memsys.config mem).Memsys.nvm_words in
  let persists recover =
    Memsys.crash mem;
    let n = ref 0 in
    let sub =
      Event.subscribe bus (fun ev ->
          if Crashpoint.persist_event ~nvm_words ev then incr n)
    in
    Fun.protect ~finally:(fun () -> Event.unsubscribe bus sub) recover;
    !n
  in
  Alcotest.(check bool) "Recovery.run persists on the world's bus" true
    (persists (fun () -> ignore (Respct.Recovery.run ~layout mem)) > 0);
  Alcotest.(check bool) "Recovery.run_verified persists on the world's bus"
    true
    (persists (fun () -> ignore (Respct.Recovery.run_verified ~layout mem))
    > 0);
  Alcotest.(check bool) "the memory stays on the world's bus" true
    (Memsys.bus mem == bus);
  let seen = ref 0 in
  let sub = Event.subscribe bus (fun _ -> incr seen) in
  Memsys.store mem 0 1;
  Event.unsubscribe bus sub;
  Alcotest.(check bool) "and still publishes there" true (!seen > 0)

(* ------------------------------------------------------------------ *)
(* Schedule sweeps stay clean on the shipped specs. *)

let test_schedule_sweeps_clean () =
  List.iter
    (fun spec ->
      let failures =
        Schedule.sweep spec ~seeds:[ 1 ] ~delays:[ 400.0 ] ~stride:9
      in
      Alcotest.(check int)
        (spec.Schedule.name ^ " sweep failures")
        0 (List.length failures))
    Schedule.all_specs

(* The sync points each sweep world shows at its first six seeds. They
   size every injection sweep, so a change to a world's spawns, locks or
   checkpoints that moves which schedules a sweep explores shows here
   even when the sweep stays clean. *)
let test_schedule_sync_points_pinned () =
  List.iter2
    (fun spec want ->
      Alcotest.(check (list int))
        (spec.Schedule.name ^ " sync points, seeds 1-6")
        want
        (List.map
           (fun sched_seed -> snd (spec.Schedule.run ~sched_seed None))
           [ 1; 2; 3; 4; 5; 6 ]))
    (Schedule.all_specs @ Schedule.pipeline_specs)
    [
      [ 49; 49; 49; 49; 49; 49 ];
      [ 103; 98; 97; 99; 101; 101 ];
      [ 253; 273; 254; 251; 253; 253 ];
    ]

(* ------------------------------------------------------------------ *)
(* Media faults: deterministic plans, the integrity oracle in both
   directions, and fault-seed-carrying counterexamples. *)

module Faultplan = Crashtest.Faultplan

let mk_dirty lineno mask =
  { Memsys.lineno; data = Array.init 8 (fun i -> (lineno * 100) + i); mask }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_faultplan_deterministic () =
  let dirty = [ mk_dirty 3 0b1011; mk_dirty 7 0b1; mk_dirty 9 0b11000101 ] in
  List.iter
    (fun (seed, crash_index) ->
      let d () = Faultplan.derive ~seed ~crash_index ~line_words:8 dirty in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d crash %d replays" seed crash_index)
        true
        (d () = d ()))
    [ (7, 0); (7, 36); (23, 36); (23, 917) ];
  let plans =
    List.init 64 (fun i ->
        Faultplan.derive ~seed:7 ~crash_index:i ~line_words:8 dirty)
  in
  Alcotest.(check bool)
    "crash index varies the plan" true
    (List.exists (fun p -> p <> List.hd plans) plans)

let test_faultplan_well_formed () =
  let dirty = [ mk_dirty 3 0b1011; mk_dirty 7 0b1; mk_dirty 9 0b11000101 ] in
  let dirty_linenos = List.map (fun d -> d.Memsys.lineno) dirty in
  let dirty_addrs =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun off ->
            if d.Memsys.mask land (1 lsl off) <> 0 then
              Some ((d.Memsys.lineno * 8) + off)
            else None)
          (List.init 8 Fun.id))
      dirty
  in
  let check_op = function
    | Faultplan.Tear { lineno; keep } ->
        let dl = List.find (fun d -> d.Memsys.lineno = lineno) dirty in
        Alcotest.(check bool) "tear keeps dirty words only" true
          (keep land lnot dl.Memsys.mask = 0);
        Alcotest.(check bool)
          "tear is a strict non-empty subset" true
          (keep <> 0 && keep <> dl.Memsys.mask)
    | Faultplan.Bitflip { addr; bit } ->
        (* Flips land on in-flight (dirty) words only — a clean at-rest
           word decays via ECC-visible poison, never silently. *)
        Alcotest.(check bool)
          (Printf.sprintf "flip @%d hits a dirty word" addr)
          true
          (List.mem addr dirty_addrs);
        Alcotest.(check bool) "bit in range" true (bit >= 0 && bit < 62)
    | Faultplan.Poison { lineno } | Faultplan.Transient { lineno } ->
        Alcotest.(check bool) "targets a dirty line" true
          (List.mem lineno dirty_linenos)
  in
  for seed = 1 to 40 do
    List.iter check_op
      (Faultplan.derive ~seed ~crash_index:(seed * 3) ~line_words:8 dirty)
  done;
  (* With nothing dirty, the plan aims at the sealed metadata region and
     never tears. *)
  for seed = 1 to 40 do
    List.iter
      (function
        | Faultplan.Tear _ -> Alcotest.fail "tear without dirty lines"
        | Faultplan.Bitflip { addr; _ } ->
            Alcotest.(check bool) "flip in metadata region" true
              (addr >= 0 && addr < 16 * 8)
        | Faultplan.Poison { lineno } | Faultplan.Transient { lineno } ->
            Alcotest.(check bool) "line in metadata region" true
              (lineno >= 0 && lineno < 16))
      (Faultplan.derive ~seed ~crash_index:seed ~line_words:8 [])
  done

let test_integrity_scenarios_survive_faults () =
  List.iter
    (fun id ->
      let o =
        Explore.explore ~fault_seeds:[ 7 ]
          (scenario_of id ~pcso:true ~n_ops:5)
      in
      Alcotest.(check int)
        (id ^ " detects or repairs every injected fault")
        0
        (List.length o.Explore.failures))
    [ "respct-map-integrity"; "respct-queue-integrity" ]

let test_noverify_mutant_fault_counterexample () =
  (* The planted integrity mutant: identical world, but recovery skips
     verification. The fault dimension must catch it and hand back a
     counterexample that carries its fault seed through shrinking, replay
     and the printed line. *)
  let id = "respct-map-noverify" in
  let rebuild ~sched_seed ~mem_seed ~pcso ~n_ops =
    (Option.get (Scenarios.find id)).Scenarios.build ~sched_seed ~mem_seed
      ~pcso ~n_ops
  in
  let o =
    Explore.explore ~stop_at_first_failure:true ~fault_seeds:[ 7 ]
      (scenario_of id ~pcso:true ~n_ops:6)
  in
  (match o.Explore.failures with
  | f :: _ ->
      Alcotest.(check (option int))
        "failure records its fault seed" (Some 7) f.Explore.fault_seed
  | [] -> ());
  let s = shrink_first ~fault_seeds:[ 7 ] ~id ~rebuild ~n_ops:6 o in
  Alcotest.(check (option int))
    "counterexample carries the seed" (Some 7)
    (Option.get s.Cx.witness.Report.point).Report.fault_seed;
  Alcotest.(check bool)
    "replay line names the fault seed" true
    (contains ~sub:" fault-seed=7" s.Cx.text)

(* ------------------------------------------------------------------ *)
(* Pipelined checkpointing: the async-epoch worlds hold under a small
   direct exploration, and two of the planted protocol mutants die with
   shrunk replayable counterexamples — a fast cross-section of what the
   full [crashmatrix --pipeline] sweep covers. *)

let test_pipeline_scenarios_hold () =
  List.iter
    (fun id ->
      let o = Explore.explore (scenario_of id ~pcso:true ~n_ops:6) in
      Alcotest.(check bool)
        (id ^ " boundaries > 0")
        true (o.Explore.boundaries > 0);
      Alcotest.(check int) (id ^ " violations") 0 (List.length o.Explore.failures))
    [ "respct-map-pipeline"; "respct-queue-pipeline"; "respct-map-pipeline-churn" ]

let test_pipeline_mutants_caught () =
  List.iter
    (fun (id, n) ->
      let rebuild ~sched_seed ~mem_seed ~pcso ~n_ops =
        (Option.get (Scenarios.find id)).Scenarios.build ~sched_seed ~mem_seed
          ~pcso ~n_ops
      in
      let o =
        Explore.explore ~stop_at_first_failure:true
          (scenario_of id ~pcso:true ~n_ops:n)
      in
      ignore (shrink_first ~id ~rebuild ~n_ops:n o))
    [
      (* the seal-before-walk mutant dies quickly on the random mix; the
         early-reclaim one needs the allocator-churn workload to force a
         same-epoch free -> overlapped-reuse window. *)
      ("respct-map-pipeline-mutant-earlyseal", 10);
      ("respct-map-pipeline-churn-mutant-earlyreclaim", 16);
    ]

(* ------------------------------------------------------------------ *)
(* IR corpus: statically inferred plans vs the explorer (the analysis
   subsystem's end-to-end gate). The inferred plan must survive
   exploration; the one-logging-site-stripped mutant must be rejected
   both statically (lint) and dynamically (shrunk, replayable crash
   counterexample). *)

let test_ir_plans_survive_and_mutants_die () =
  List.iter
    (fun (name, prog) ->
      let id = "ir-" ^ name in
      let v = Crashtest.Irscenarios.check_program ~n_ops:6 ~name:id prog in
      Alcotest.(check (list string))
        (name ^ ": inferred plan survives exploration")
        []
        (List.map
           (fun (f : Explore.failure) -> f.Explore.reason)
           v.Crashtest.Irscenarios.plan_failures);
      Alcotest.(check bool)
        (name ^ ": stripped mutant caught by the lint")
        true v.Crashtest.Irscenarios.mutant_caught_static;
      match v.Crashtest.Irscenarios.mutant_counterexample with
      | None ->
          Alcotest.failf "%s: stripped mutant survived dynamic exploration"
            name
      | Some s -> (
          (* the printed line replays through the global scenario lookup *)
          match Cx.replay [ Cx.Campaign Crashtest.Matrix.campaign ] s.Cx.text with
          | Ok (_, Cx.Reproduced _) -> ()
          | Ok (_, Cx.Vanished _) ->
              Alcotest.failf "%s: mutant counterexample does not replay" name
          | Error e -> Alcotest.failf "%s: %a" name Cx.pp_error e))
    Analysis.Corpus.all

(* ------------------------------------------------------------------ *)
(* Filemem crash matrix: clean trials pass the durability oracles, the
   planted psync-elision mutant is caught, and counterexample strings
   round-trip through parse/replay. *)

let fmx_params =
  {
    Crashtest.Filematrix.fseed = 42;
    fthreads = 2;
    fkeyspace = 96;
    fops = 200;
    fcrash_us = 120;
    fmutant = false;
  }

let test_filematrix_clean_passes () =
  Prockill.with_scratch_dir "fmx-test" (fun dir ->
      let o = Crashtest.Filematrix.run_trial fmx_params ~dir in
      (match o.Crashtest.Filematrix.fo_violations with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "clean trial violated: %a" Prockill.pp_violation v);
      Alcotest.(check bool) "at least one epoch sealed" true
        (o.Crashtest.Filematrix.fo_sealed_max >= 1);
      let o2 = Crashtest.Filematrix.run_trial fmx_params ~dir in
      Alcotest.(check string) "trials deterministic"
        o.Crashtest.Filematrix.fo_verdict o2.Crashtest.Filematrix.fo_verdict;
      Alcotest.(check int) "sealed epochs deterministic"
        o.Crashtest.Filematrix.fo_sealed_max
        o2.Crashtest.Filematrix.fo_sealed_max)

let test_filematrix_mutant_caught () =
  Prockill.with_scratch_dir "fmx-test" (fun dir ->
      let p = { fmx_params with Crashtest.Filematrix.fmutant = true } in
      let o = Crashtest.Filematrix.run_trial p ~dir in
      match o.Crashtest.Filematrix.fo_violations with
      | [] -> Alcotest.fail "Elide_psync mutant slipped past both oracles"
      | vs -> (
          (* the shrunk counterexample must still violate and replay *)
          let reason =
            Fmt.str "%a" Fmt.(list ~sep:comma Prockill.pp_violation) vs
          in
          let s =
            Cx.minimize (Crashtest.Filematrix.campaign ~dir ()) (p, reason)
          in
          let q = s.Cx.witness in
          Alcotest.(check bool) "shrunk no larger" true
            (q.Crashtest.Filematrix.fops <= p.Crashtest.Filematrix.fops
            && q.Crashtest.Filematrix.fthreads <= p.Crashtest.Filematrix.fthreads
            && q.Crashtest.Filematrix.fcrash_us <= p.Crashtest.Filematrix.fcrash_us);
          match s.Cx.parity with
          | Ok () -> ()
          | Error m -> Alcotest.failf "replay %S failed: %s" s.Cx.text m))

(* The printed [# filematrix] line parses back to the same witness; the
   retired [k=v;...] syntax is refused, and so is a thread count past
   the world's counter cells (prockill's bound). *)
let test_filematrix_replay_string_roundtrip () =
  let c = Crashtest.Filematrix.campaign () in
  let s = Cx.to_string c fmx_params in
  (match Cx.of_string c s with
  | Ok p -> Alcotest.(check bool) "round-trips" true (p = fmx_params)
  | Error e -> Alcotest.failf "cannot parse own string %S: %a" s Cx.pp_error e);
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Cx.of_string c "seed=x;nope"));
  Alcotest.(check (result reject string)) "threads past ncounters rejected"
    (Error "bad counterexample: bad field threads=17")
    (Result.map_error (Fmt.str "%a" Cx.pp_error)
       (Cx.of_string c
          "# filematrix seed=1 threads=17 keyspace=96 ops=8 crash_us=60 mutant=0"))

(* ------------------------------------------------------------------ *)
(* One codec property for all five campaigns: printing then parsing a
   witness gives it back, and the parser answers every other input —
   random strings, every truncation of a valid text, the malformed
   literals older syntaxes accepted — with an error, never an
   exception. *)

type any_witness = W : 'p Cx.campaign * 'p -> any_witness

let campaigns : Cx.packed list =
  [
    Cx.Campaign Crashtest.Matrix.campaign;
    Cx.Campaign (Crashtest.Filematrix.campaign ());
    Cx.Campaign (Prockill_campaign.campaign ());
    Cx.Campaign (Litmus.Harness.campaign ());
    Cx.Campaign Litmus.Axcheck.campaign;
  ]

let gen_witness : any_witness QCheck.Gen.t =
  let open QCheck.Gen in
  let seed = int_range (-1000) 1_000_000 and small = int_range 0 400 in
  (* every registry id, in every dimension, plus an IR corpus one *)
  let scenario =
    oneofl
      (List.map (fun (e : Scenarios.entry) -> e.Scenarios.id) Scenarios.all
      @ [ "ir-kv-update-striplog" ])
  in
  let variant =
    oneof
      [ return Explore.Baseline; return Explore.Evict_all;
        map (fun l -> Explore.Evict_line l) small;
        map (fun a -> Explore.Evict_word a) small ]
  in
  let crashmatrix =
    map
      (fun ((scenario, sched_seed, mem_seed, pcso), (n_ops, crash_index, variant, fault_seed)) ->
        W
          ( Crashtest.Matrix.campaign,
            { Report.scenario; sched_seed; mem_seed; pcso; n_ops;
              point = Some { Report.crash_index; variant; fault_seed } } ))
      (pair (quad scenario seed seed bool) (quad small small variant (opt seed)))
  in
  let filematrix =
    map
      (fun ((fseed, fthreads, fkeyspace), (fops, fcrash_us, fmutant)) ->
        W
          ( Crashtest.Filematrix.campaign (),
            { Crashtest.Filematrix.fseed; fthreads; fkeyspace; fops; fcrash_us; fmutant } ))
      (pair (triple seed (int_range 1 8) (int_range 1 500)) (triple small small bool))
  in
  let prockill =
    map
      (fun ((seed, trial, threads), (keyspace, kill_delay_us, mutant)) ->
        W
          ( Prockill_campaign.campaign (),
            { Prockill.seed; trial; threads; keyspace; kill_delay_us; mutant } ))
      (pair (triple seed seed (int_range 1 16)) (triple (int_range 1 500) small bool))
  in
  let litmus =
    map
      (fun (p, (world, variant, mutant, (sched, image))) ->
        let locs = Litmus.Prog.locs p in
        W
          ( Litmus.Harness.campaign (),
            ( p,
              Some
                {
                  Litmus.Harness.v_world = world;
                  v_variant = variant;
                  v_mutant = (if mutant then Some Litmus.World.Drop_same_line_order else None);
                  v_sched_seed = sched;
                  v_image_seed = image;
                  v_observed = List.map (fun _ -> 0) locs;
                } ) ))
      (pair Litmus.Gen.gen_prog
         (quad (oneofl Litmus.World.all_ids)
            (oneofl Litmus.Axiom.[ Pcso; Pcso_lazy; Eadr; Ablation ])
            bool (pair seed seed)))
  in
  let axcheck =
    map
      (fun (p, variant, mutant, i) ->
        let locs = Litmus.Prog.locs p in
        W
          ( Litmus.Axcheck.campaign,
            { Litmus.Axcheck.cx_prog = p; cx_variant = variant;
              cx_mutant = mutant; cx_loc = List.nth locs (i mod List.length locs) } ))
      (quad Litmus.Gen.gen_prog
         (oneofl Litmus.Axiom.[ Pcso; Pcso_lazy; Eadr; Ablation ])
         (opt (oneofl Litmus.Axcheck.[ Strip_psync; Inject_redundant_pwb ]))
         small)
  in
  oneof [ crashmatrix; filematrix; prockill; litmus; axcheck ]

(* Holds unless the parser raises (which fails the property). *)
let parse_total text =
  (match Cx.parse text with Ok _ | Error _ -> true)
  && List.for_all
       (fun (Cx.Campaign c) ->
         match Cx.of_string c text with Ok _ | Error _ -> true)
       campaigns

let codec_roundtrip =
  QCheck.Test.make ~name:"codec round-trip, truncations"
    ~count:300
    (QCheck.make
       ~print:(fun (W (c, w)) -> Cx.to_string c w)
       gen_witness)
    (fun (W (c, w)) ->
      let text = Cx.to_string c w in
      Cx.of_string c text = Ok w
      && List.for_all
           (fun n -> parse_total (String.sub text 0 n))
           (List.init (String.length text) Fun.id))

let codec_garbage =
  QCheck.Test.make ~name:"parser total on garbage" ~count:500
    (QCheck.string_gen_of_size (QCheck.Gen.int_range 0 80) QCheck.Gen.printable)
    (fun s -> parse_total s && parse_total ("# crashmatrix " ^ s) && parse_total ("# check " ^ s))

let test_codec_malformed_literals () =
  List.iter
    (fun text ->
      List.iter
        (fun (Cx.Campaign c) ->
          match Cx.of_string c text with
          | Ok _ -> Alcotest.failf "%s accepted %S" c.Cx.tag text
          | Error _ -> ())
        campaigns;
      match Cx.replay campaigns text with
      | Ok _ -> Alcotest.failf "replay accepted %S" text
      | Error _ -> ())
    [ "seed=1;bogus"; "seed=x;nope"; "# prockill seed=1;bogus"; "# filematrix seed=x;nope" ]

(* Replays of the file-backed campaigns make their scratch directories
   only once the text parses, and remove them on every path. *)
let test_replay_leaves_no_scratch_dirs () =
  let pid = string_of_int (Unix.getpid ()) in
  let ours () =
    List.concat_map
      (fun base ->
        match Sys.readdir base with
        | entries ->
            Array.to_list entries
            |> List.filter (fun e -> contains ~sub:("-" ^ pid ^ "-") e)
        | exception Sys_error _ -> [])
      [ "/dev/shm"; Filename.get_temp_dir_name () ]
  in
  let before = ours () in
  List.iter
    (fun text -> ignore (Cx.replay campaigns text))
    ([
       "# prockill seed=x";
       "# filematrix seed=x";
       "# filematrix seed=7 threads=1 keyspace=16 ops=4 crash_us=60 mutant=1";
     ]
    @
    if Prockill.fork_available () then
      [ "# prockill seed=7 trial=1 threads=1 keyspace=16 delay_us=500 mutant=0" ]
    else []);
  Alcotest.(check (list string)) "no scratch directory left behind" before (ours ())

(* A campaign's jobs are independent: run last to first, every job
   returns what it returns first to last — what a pool that runs them in
   any order relies on. Over the crashmatrix smoke jobs (explorations and
   schedule sweeps) and the litmus corpus jobs. *)
let test_jobs_in_reverse () =
  List.iter
    (fun (what, (t : Obs.Jobs.campaign)) ->
      let n = Array.length t.Obs.Jobs.jobs in
      let forward = Array.map (fun job -> job ()) t.Obs.Jobs.jobs in
      let backward = Array.make n None in
      for i = n - 1 downto 0 do
        backward.(i) <- Some (t.Obs.Jobs.jobs.(i) ())
      done;
      Array.iteri
        (fun i r ->
          if backward.(i) <> Some r then
            Alcotest.failf "%s job %d changed with the order:@.%s" what i
              r.Obs.Jobs.text)
        forward)
    [
      ( "crashmatrix",
        Result.get_ok
          (Crashtest.Matrix.jobs Crashtest.Matrix.Matrix Crashtest.Matrix.smoke)
      );
      ("litmus corpus", Result.get_ok (Litmus.Harness.jobs ~corpus:true ()));
    ]

let () =
  Alcotest.run "crashtest"
    [
      ( "workmix",
        [ Alcotest.test_case "deterministic" `Quick test_workmix_deterministic ]
      );
      ( "explorer",
        [
          Alcotest.test_case "correct systems pass" `Slow
            test_correct_systems_pass;
          Alcotest.test_case "mutant caught + shrunk + replays" `Slow
            test_mutant_caught_and_shrunk;
          Alcotest.test_case "check_point reports a raise" `Quick
            test_check_point_reports_raise;
          Alcotest.test_case "unmutated raw log passes" `Quick
            test_unmutated_raw_passes;
          Alcotest.test_case "registry ids resolve" `Quick
            test_registry_ids_resolve;
          Alcotest.test_case "images are the crash instant's" `Slow
            test_images_are_the_crash_instant;
          Alcotest.test_case "single pass equals fresh worlds" `Slow
            test_single_pass_equals_fresh_worlds;
          Alcotest.test_case "oracle key has teeth" `Quick
            test_oracle_key_has_teeth;
          Alcotest.test_case "carried verdicts meet the same image" `Slow
            test_carried_verdicts_meet_same_image;
          Alcotest.test_case "exploration work pinned" `Quick
            test_exploration_work_pinned;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "breaks InCLL systems" `Slow
            test_ablation_breaks_incll;
          Alcotest.test_case "spares explicit flushers" `Slow
            test_ablation_spares_explicit_flushers;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "idempotent under mid-recovery crashes" `Slow
            test_recovery_idempotent;
          Alcotest.test_case "boundary bookkeeping allocation" `Quick
            test_boundary_bookkeeping_words;
          Alcotest.test_case "verified recovery allocation bounded" `Quick
            test_verified_recovery_words;
        ] );
      ( "subscribers",
        [
          Alcotest.test_case "detach on completion and crash" `Quick
            test_subscribers_detach;
          Alcotest.test_case "detach when the world raises" `Quick
            test_subscribers_detach_on_raise;
          Alcotest.test_case "world stream folds to the stats" `Quick
            test_stream_folds_to_stats;
          Alcotest.test_case "recovery publishes on the world's bus" `Quick
            test_recovery_shares_the_bus;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "sweeps clean" `Slow test_schedule_sweeps_clean;
          Alcotest.test_case "sync points pinned" `Quick
            test_schedule_sync_points_pinned;
        ] );
      ( "faults",
        [
          Alcotest.test_case "plans deterministic under a seed" `Quick
            test_faultplan_deterministic;
          Alcotest.test_case "plans well-formed" `Quick
            test_faultplan_well_formed;
          Alcotest.test_case "integrity scenarios survive faults" `Slow
            test_integrity_scenarios_survive_faults;
          Alcotest.test_case "noverify mutant fault counterexample" `Slow
            test_noverify_mutant_fault_counterexample;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "pipeline scenarios hold" `Slow
            test_pipeline_scenarios_hold;
          Alcotest.test_case "pipeline mutants caught + shrunk + replay" `Slow
            test_pipeline_mutants_caught;
        ] );
      ( "ir-corpus",
        [
          Alcotest.test_case "plans survive, stripped mutants die" `Slow
            test_ir_plans_survive_and_mutants_die;
        ] );
      ( "filematrix",
        [
          Alcotest.test_case "clean trial passes, deterministic" `Quick
            test_filematrix_clean_passes;
          Alcotest.test_case "mutant caught, shrunk, replays" `Slow
            test_filematrix_mutant_caught;
          Alcotest.test_case "replay string round-trips" `Quick
            test_filematrix_replay_string_roundtrip;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "reverse order, same results" `Quick
            test_jobs_in_reverse;
        ] );
      ( "cx",
        List.map
          (fun t -> Gen_common.to_alcotest ~suite:"crashtest" t)
          [ codec_roundtrip; codec_garbage ]
        @ [
            Alcotest.test_case "malformed literals rejected" `Quick
              test_codec_malformed_literals;
            Alcotest.test_case "replay leaves no scratch dirs" `Quick
              test_replay_leaves_no_scratch_dirs;
          ] );
    ]
